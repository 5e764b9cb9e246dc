// Package topology models the AS-level Internet that DMap runs over: a
// graph of autonomous systems with per-link inter-AS latencies, per-AS
// intra-AS latencies, and per-AS end-node populations.
//
// It substitutes for the DIMES measurement dataset used in the paper
// (§IV-B1, [25]): a connectivity graph of 26,424 ASs and 90,267 links,
// median intra-AS latency 3.5 ms with a heavy tail (including rare stubs
// with multi-second access latency, like the paper's AS 23951), and
// end-node counts used to weight where inserts and queries originate.
//
// Latencies are carried as integer microseconds to keep arithmetic exact
// and allocation-free on the simulator hot path.
package topology

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"
)

// Micros is a latency in integer microseconds.
type Micros int64

// Duration converts m to a time.Duration.
func (m Micros) Duration() time.Duration { return time.Duration(m) * time.Microsecond }

// Millis returns m in floating-point milliseconds (for reporting).
func (m Micros) Millis() float64 { return float64(m) / 1000 }

// MicrosFromMillis converts floating-point milliseconds to Micros.
func MicrosFromMillis(ms float64) Micros { return Micros(math.Round(ms * 1000)) }

type edge struct {
	to  int32
	lat Micros
}

// Graph is an undirected AS-level topology. AS indices are dense in
// [0, NumAS), shared with internal/prefixtable. Graph is immutable after
// construction and safe for concurrent readers.
type Graph struct {
	adj      [][]edge
	intra    []Micros  // per-AS intra-AS one-way latency
	endNodes []float64 // per-AS end-node population (sampling weight)
	region   []int16   // per-AS geographic region
	numLinks int
	// minLat and maxLat bound the link latencies; they size the
	// bucket queue's bucket width and ring.
	minLat, maxLat Micros
	queues         sync.Pool // *bucketQueue scratch for Dijkstra and HopBFS
}

// NewGraph builds an empty graph with n ASs; links are added by the
// generator. intra latencies default to zero.
func newGraph(n int) *Graph {
	g := &Graph{
		adj:      make([][]edge, n),
		intra:    make([]Micros, n),
		endNodes: make([]float64, n),
		region:   make([]int16, n),
	}
	g.queues.New = func() any {
		return &bucketQueue{next: make([]int32, n), prev: make([]int32, n)}
	}
	return g
}

// Region returns the geographic region index of as.
func (g *Graph) Region(as int) int { return int(g.region[as]) }

// NumAS returns the number of autonomous systems.
func (g *Graph) NumAS() int { return len(g.adj) }

// NumLinks returns the number of undirected inter-AS links.
func (g *Graph) NumLinks() int { return g.numLinks }

// Degree returns the number of inter-AS links at as.
func (g *Graph) Degree(as int) int { return len(g.adj[as]) }

// Intra returns the one-way intra-AS latency of as.
func (g *Graph) Intra(as int) Micros { return g.intra[as] }

// EndNodes returns the end-node population weight of as.
func (g *Graph) EndNodes(as int) float64 { return g.endNodes[as] }

// EndNodeWeights returns the per-AS end-node weights (shared slice; do not
// modify).
func (g *Graph) EndNodeWeights() []float64 { return g.endNodes }

// Neighbors calls fn for every link incident to as.
func (g *Graph) Neighbors(as int, fn func(to int, lat Micros)) {
	for _, e := range g.adj[as] {
		fn(int(e.to), e.lat)
	}
}

// hasEdge reports whether an a–b link exists (scan is fine: degrees are
// small except in the core, and this is generator-side only).
func (g *Graph) hasEdge(a, b int) bool {
	x, y := a, b
	if len(g.adj[a]) > len(g.adj[b]) {
		x, y = b, a
	}
	for _, e := range g.adj[x] {
		if int(e.to) == y {
			return true
		}
	}
	return false
}

// addEdge inserts an undirected link; duplicate and self links and
// negative latencies are rejected with an error.
func (g *Graph) addEdge(a, b int, lat Micros) error {
	if a == b {
		return fmt.Errorf("topology: self link at AS %d", a)
	}
	if lat < 0 {
		return fmt.Errorf("topology: negative latency %d µs on link %d–%d", lat, a, b)
	}
	if g.hasEdge(a, b) {
		return fmt.Errorf("topology: duplicate link %d–%d", a, b)
	}
	g.adj[a] = append(g.adj[a], edge{to: int32(b), lat: lat})
	g.adj[b] = append(g.adj[b], edge{to: int32(a), lat: lat})
	if g.numLinks == 0 || lat < g.minLat {
		g.minLat = lat
	}
	if lat > g.maxLat {
		g.maxLat = lat
	}
	g.numLinks++
	return nil
}

// InfMicros marks an unreachable AS in distance vectors.
const InfMicros = Micros(math.MaxInt64)

// maxBuckets caps the size of Dijkstra's bucket ring.
const maxBuckets = 4096

// notQueued marks, in bucketQueue.prev, an AS that is in no bucket.
const notQueued = -2

// bucketQueue is Dijkstra's scratch: a ring of buckets, each a doubly
// linked list threaded through per-AS next/prev links. Between uses
// every bucket is empty (head all -1); next and prev are only read for
// ASs queued in the current pass, so they need no reset, and HopBFS may
// use next as scratch.
type bucketQueue struct {
	head       []int32 // first AS in each bucket, -1 if empty
	next, prev []int32 // list links; prev is -1 at a head, notQueued off-list
}

// grow makes the ring at least buckets long.
func (q *bucketQueue) grow(buckets int) {
	if len(q.head) >= buckets {
		return
	}
	q.head = make([]int32, buckets)
	for i := range q.head {
		q.head[i] = -1
	}
}

func (q *bucketQueue) push(b int, v int32) {
	h := q.head[b]
	q.next[v], q.prev[v] = h, -1
	if h >= 0 {
		q.prev[h] = v
	}
	q.head[b] = v
}

func (q *bucketQueue) unlink(b int, v int32) {
	n, p := q.next[v], q.prev[v]
	if p >= 0 {
		q.next[p] = n
	} else {
		q.head[b] = n
	}
	if n >= 0 {
		q.prev[n] = p
	}
	q.prev[v] = notQueued
}

// bucketGeometry returns log2 of Dijkstra's bucket width W and the size
// of its bucket ring. W is the largest power of two no larger than the
// smallest link latency, widened until at most maxBuckets buckets cover
// the largest link latency; the ring is the smallest power of two that
// covers it.
func (g *Graph) bucketGeometry() (shift uint, buckets int) {
	if g.minLat > 0 {
		shift = uint(bits.Len64(uint64(g.minLat)) - 1)
	}
	for g.maxLat>>shift+2 > maxBuckets {
		shift++
	}
	return shift, 1 << bits.Len64(uint64(g.maxLat>>shift+1))
}

// Dijkstra fills dist with the minimum inter-AS path latency (sum of link
// latencies, excluding endpoint intra-AS terms) from src to every AS.
// dist must have length NumAS. Unreachable ASs get InfMicros.
//
// The queue is Dial's bucket queue (DESIGN.md §4): bucket i of the ring
// holds the ASs whose tentative distance d has d>>shift ≡ i (mod ring
// size). Live distances span at most maxLat>>shift+2 consecutive
// buckets, so the ring never aliases. Every decrease (re)queues the AS
// and the loop runs until nothing is queued, so the result is exact for
// any bucket width; a width no larger than the smallest link makes every
// AS in the lowest non-empty bucket final, so each AS is scanned once.
func (g *Graph) Dijkstra(src int, dist []Micros) {
	if len(dist) != g.NumAS() {
		panic(fmt.Sprintf("topology: Dijkstra dist length %d, want %d", len(dist), g.NumAS()))
	}
	for i := range dist {
		dist[i] = InfMicros
	}
	shift, buckets := g.bucketGeometry()
	mask := buckets - 1
	q := g.queues.Get().(*bucketQueue)
	defer g.queues.Put(q)
	q.grow(buckets)

	dist[src] = 0
	q.push(0, int32(src))
	for b, queued := 0, 1; queued > 0; {
		u := q.head[b]
		if u < 0 {
			b = (b + 1) & mask
			continue
		}
		q.unlink(b, u)
		queued--
		du := dist[u]
		for _, e := range g.adj[u] {
			v, nd := e.to, du+e.lat
			old := dist[v]
			if nd >= old {
				continue
			}
			if old != InfMicros && q.prev[v] != notQueued {
				q.unlink(int(old>>shift)&mask, v)
			} else {
				queued++
			}
			dist[v] = nd
			q.push(int(nd>>shift)&mask, v)
		}
	}
}

// HopBFS fills hops with the minimum AS-hop count from src to every AS
// (least-hop-count replica selection, §IV-B2a). hops must have length
// NumAS. Unreachable ASs get -1.
func (g *Graph) HopBFS(src int, hops []int32) {
	if len(hops) != g.NumAS() {
		panic(fmt.Sprintf("topology: HopBFS hops length %d, want %d", len(hops), g.NumAS()))
	}
	for i := range hops {
		hops[i] = -1
	}
	// The FIFO borrows the bucket queue's next array: each AS is
	// enqueued at most once, so NumAS slots suffice.
	q := g.queues.Get().(*bucketQueue)
	defer g.queues.Put(q)
	fifo := q.next
	hops[src] = 0
	fifo[0] = int32(src)
	for head, tail := 0, 1; head < tail; head++ {
		cur := fifo[head]
		for _, e := range g.adj[cur] {
			if hops[e.to] < 0 {
				hops[e.to] = hops[cur] + 1
				fifo[tail] = e.to
				tail++
			}
		}
	}
}

// OneWay returns the end-to-end one-way latency from a requester in AS s
// to a server in AS t: half the intra-AS latency at each end plus the
// inter-AS path, matching the latency model in DESIGN.md. dist must be a
// Dijkstra vector computed from s (or from t; the metric is symmetric).
func (g *Graph) OneWay(s, t int, dist []Micros) Micros {
	if s == t {
		return g.intra[s]
	}
	d := dist[t]
	if d == InfMicros {
		return InfMicros
	}
	return d + g.intra[s]/2 + g.intra[t]/2
}

// RTT returns the round-trip time for a request from AS s served at AS t.
func (g *Graph) RTT(s, t int, dist []Micros) Micros {
	ow := g.OneWay(s, t, dist)
	if ow == InfMicros {
		return InfMicros
	}
	return 2 * ow
}
