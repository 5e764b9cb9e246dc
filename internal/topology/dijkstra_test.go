package topology

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// referenceDist is the plain O(n²) Dijkstra the bucket queue is checked
// against: repeatedly settle the closest unsettled AS.
func referenceDist(g *Graph, src int) []Micros {
	n := g.NumAS()
	dist := make([]Micros, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = InfMicros
	}
	dist[src] = 0
	for {
		u := -1
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] != InfMicros && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		g.Neighbors(u, func(to int, lat Micros) {
			if d := dist[u] + lat; d < dist[to] {
				dist[to] = d
			}
		})
	}
}

// randomGraph links n ASs with up to links random edges whose latencies
// come from lat. When components > 1 the ASs are split into that many
// groups (AS i in group i%components) and no edge crosses groups.
func randomGraph(t *testing.T, rng *rand.Rand, n, links, components int, lat func() Micros) *Graph {
	t.Helper()
	g := newGraph(n)
	for i := 0; i < links; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a%components != b%components || a == b || g.hasEdge(a, b) {
			continue
		}
		if err := g.addEdge(a, b, lat()); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// checkAgainstReference compares Dijkstra with the reference from every
// source. When every link has the same positive latency it also checks
// HopBFS, whose hop counts are then the distances divided by it.
func checkAgainstReference(t *testing.T, name string, g *Graph) {
	t.Helper()
	dist := make([]Micros, g.NumAS())
	hops := make([]int32, g.NumAS())
	uniform := g.numLinks > 0 && g.minLat == g.maxLat && g.minLat > 0
	for src := 0; src < g.NumAS(); src++ {
		g.Dijkstra(src, dist)
		g.HopBFS(src, hops)
		want := referenceDist(g, src)
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("%s (minLat %d, maxLat %d): dist %d→%d = %d, want %d",
					name, g.minLat, g.maxLat, src, v, dist[v], want[v])
			}
			if !uniform {
				continue
			}
			wantHops := int32(-1)
			if want[v] != InfMicros {
				wantHops = int32(want[v] / g.minLat)
			}
			if hops[v] != wantHops {
				t.Fatalf("%s: hops %d→%d = %d, want %d", name, src, v, hops[v], wantHops)
			}
		}
	}
}

// TestDijkstraMatchesReference checks the bucket queue against the
// O(n²) reference from every source over seeded random graphs covering
// the cases its exactness argument distinguishes: bucket width at most
// the smallest link (final on reach), zero-latency links and latency
// spans past the ring cap (both re-queue inside the current bucket),
// disconnected components and a lone AS.
func TestDijkstraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logUniform := func(lo, hi float64) func() Micros {
		return func() Micros {
			return Micros(math.Round(lo * math.Exp(rng.Float64()*math.Log(hi/lo))))
		}
	}
	cases := []struct {
		name       string
		components int
		lat        func() Micros
	}{
		{"uniform 1-5ms", 1, func() Micros { return Micros(1000 + rng.Intn(4000)) }},
		{"with zero links", 1, func() Micros {
			if rng.Intn(3) == 0 {
				return 0
			}
			return Micros(rng.Intn(50))
		}},
		{"all zero", 1, func() Micros { return 0 }},
		{"1us-2.5s", 1, logUniform(1, 2.5e6)},
		{"equal latencies, two components", 2, func() Micros { return 700 }},
		{"three components", 3, logUniform(100, 2e5)},
	}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			n := 2 + rng.Intn(60)
			g := randomGraph(t, rng, n, rng.Intn(4*n), c.components, c.lat)
			checkAgainstReference(t, c.name, g)
		}
	}

	checkAgainstReference(t, "single AS", newGraph(1))
	checkAgainstReference(t, "generated", testGraph(t, 300, 13))
}

// TestDijkstraConcurrentOnOneGraph runs Dijkstra and HopBFS from several
// goroutines on one Graph, so under -race the pooled queue scratch is
// checked for sharing between concurrent passes.
func TestDijkstraConcurrentOnOneGraph(t *testing.T) {
	g := testGraph(t, 500, 14)
	n := g.NumAS()
	want := make([][]Micros, n)
	wantHops := make([][]int32, n)
	for src := range want {
		want[src] = make([]Micros, n)
		g.Dijkstra(src, want[src])
		wantHops[src] = make([]int32, n)
		g.HopBFS(src, wantHops[src])
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		gr := gr
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist := make([]Micros, n)
			hops := make([]int32, n)
			for i := 0; i < 100; i++ {
				src := (gr*61 + i*7) % n
				g.Dijkstra(src, dist)
				g.HopBFS(src, hops)
				for v := range dist {
					if dist[v] != want[src][v] || hops[v] != wantHops[src][v] {
						t.Errorf("goroutine %d: %d→%d = %d µs / %d hops, want %d µs / %d hops",
							gr, src, v, dist[v], hops[v], want[src][v], wantHops[src][v])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestAddEdgeRejectsNegativeLatency(t *testing.T) {
	g := newGraph(2)
	if err := g.addEdge(0, 1, -1); err == nil {
		t.Fatal("negative latency accepted")
	}
}
