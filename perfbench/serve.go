package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/client"
	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// Serving-workload shape (NOTES.md): one process, two in-process nodes
// on loopback TCP, two closed-loop clients sharing one client.Cluster,
// K=3 placement over a generated two-AS prefix table.
const (
	serveClients  = 2
	serveNodes    = 2
	serveK        = 3
	servePrefixes = 1000
	serveKeys     = 100_000
	toyKeys       = 2_000
	zipfS         = 1.1
	setupReps     = 3 // setup_s is the median of this many full set-ups
	preloadChunk  = 4096
	spanCap       = 1 << 18 // raw spans kept per client; totals count all
)

// serveConfig distinguishes the two serving workloads.
type serveConfig struct {
	durable    bool    // nodes opened with server.Open on a data dir
	updateFrac float64 // share of ops that are Updates (uniform keys)
}

func runLookupZipf(o options) (*report, error) { return runServe(o, serveConfig{}) }

func runUpdateMix(o options) (*report, error) {
	return runServe(o, serveConfig{durable: true, updateFrac: 0.3})
}

// inputs are a serving run's generated keys. Entry contents are a pure
// function of (key index, version), so any answer can be checked.
type inputs struct {
	seed int64
	keys []guid.GUID
}

func genInputs(seed int64, n int) inputs {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]guid.GUID, 0, n)
	seen := make(map[guid.GUID]bool, n)
	for len(keys) < n {
		g := guid.FromUint64(rng.Uint64())
		if g.IsZero() || seen[g] {
			continue
		}
		seen[g] = true
		keys = append(keys, g)
	}
	return inputs{seed: seed, keys: keys}
}

// na is the locator key i carries at version v.
func (in inputs) na(i int, v uint64) store.NA {
	x := uint64(in.seed)*0x9E3779B97F4A7C15 ^ uint64(i)*0xBF58476D1CE4E5B9 ^ v*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return store.NA{AS: int(x & 1), Addr: netaddr.Addr(uint32(x >> 8))}
}

// fill sets e to key i's entry at version v, reusing e's NAs storage.
func (in inputs) fill(e *store.Entry, i int, v uint64) {
	e.GUID = in.keys[i]
	e.NAs = append(e.NAs[:0], in.na(i, v))
	e.Version = v
	e.Meta = 0
}

// cluster is one set-up: the nodes, the shared client and what it took.
type cluster struct {
	nodes    []*server.Node
	cl       *client.Cluster
	res      *core.Resolver
	dataDir  string
	shadow   *store.Store // store.put target, opened like the nodes' stores
	distinct []uint8      // per key: distinct replica nodes (preload check)
	ackBytes int64        // encoded entry bytes acked, per distinct node
	entryLen int64        // encoded length of every entry (one NA each)
}

func (c *cluster) close() {
	if c.cl != nil {
		c.cl.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
	if c.shadow != nil {
		c.shadow.Close()
	}
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}

// buildCluster generates the prefix table, starts the nodes and the
// client, and preloads every key at version 1 with InsertBatch.
func buildCluster(o options, cfg serveConfig, in inputs, rep int) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS: serveNodes, NumPrefixes: servePrefixes, AnnouncedFraction: 0.52, Seed: in.seed,
	})
	if err != nil {
		return nil, err
	}
	if c.res, err = core.NewResolver(guid.MustHasher(serveK, 0), tbl, 0); err != nil {
		return nil, err
	}
	if cfg.durable {
		c.dataDir = filepath.Join(o.outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(c.dataDir); err != nil {
			return nil, err
		}
	}
	addrs := make(map[int]string, serveNodes)
	for as := 0; as < serveNodes; as++ {
		var n *server.Node
		if cfg.durable {
			n, err = server.Open(server.Options{DataDir: filepath.Join(c.dataDir, fmt.Sprintf("node%d", as)), Fsync: store.FsyncOS})
			if err != nil {
				return nil, err
			}
		} else {
			n = server.NewWithOptions(nil, server.Options{})
		}
		c.nodes = append(c.nodes, n)
		if addrs[as], err = n.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	if cfg.durable {
		if c.shadow, err = store.Open(store.Options{Dir: filepath.Join(c.dataDir, "shadow"), Fsync: store.FsyncOS}); err != nil {
			return nil, err
		}
	}
	if c.cl, err = client.NewWithConfig(c.res, addrs, client.Config{}); err != nil {
		return nil, err
	}

	c.distinct = make([]uint8, len(in.keys))
	var ps []core.Placement
	for i, g := range in.keys {
		if ps, err = c.res.PlaceInto(g, ps[:0]); err != nil {
			return nil, err
		}
		var seen [serveNodes]bool
		for _, p := range ps {
			if !seen[p.AS] {
				seen[p.AS] = true
				c.distinct[i]++
			}
		}
	}
	batch := make([]store.Entry, 0, preloadChunk)
	var enc []byte
	for lo := 0; lo < len(in.keys); lo += preloadChunk {
		hi := min(lo+preloadChunk, len(in.keys))
		batch = batch[:0]
		for i := lo; i < hi; i++ {
			var e store.Entry
			in.fill(&e, i, 1)
			batch = append(batch, e)
		}
		acks, err := c.cl.InsertBatch(batch)
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		for j, a := range acks {
			if a != int(c.distinct[lo+j]) {
				return nil, fmt.Errorf("preload: key %d acked by %d of %d replica nodes", lo+j, a, c.distinct[lo+j])
			}
			if enc, err = wire.AppendEntry(enc[:0], batch[j]); err != nil {
				return nil, err
			}
			c.ackBytes += int64(len(enc) * a)
			c.entryLen = int64(len(enc))
		}
	}
	ok = true
	return c, nil
}

// keyState tracks, per key, the highest version issued and the highest
// version acknowledged by all K replicas (§III-D2 freshest-wins: a read
// issued after an ack at v must return at least v).
type keyState struct {
	issued []atomic.Uint64
	acked  []atomic.Uint64
}

func newKeyState(n int) *keyState {
	ks := &keyState{issued: make([]atomic.Uint64, n), acked: make([]atomic.Uint64, n)}
	for i := 0; i < n; i++ {
		ks.issued[i].Store(1)
		ks.acked[i].Store(1)
	}
	return ks
}

func (ks *keyState) ack(i int, v uint64) {
	for {
		cur := ks.acked[i].Load()
		if v <= cur || ks.acked[i].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Window phases shared by the controller and the clients.
const (
	phaseWarm = 0
	phaseStop = -1
	maxWins   = 256
)

// worker is one closed-loop client's state and tallies.
type worker struct {
	id       int
	rng      *rand.Rand
	zipf     *rand.Zipf
	lookLat  []time.Duration // untraced-window lookup latencies
	updLat   []time.Duration // untraced-window update latencies
	winOps   [maxWins]int64  // ops started per window
	attempts int64
	failed   int64
	firstErr error
	wireB    int64 // encoded wire bytes of traced ops
	wireOps  int64
	userB    int64 // encoded entry bytes acked (per distinct node)
	rec      *recorder
	opSeq    uint64
	hashSink uint32 // keeps timed hash calls from being optimised away

	// Reused buffers: the untraced loop allocates nothing itself.
	got, view, upd, dec store.Entry
	places              []core.Placement
	b1, b2, b3, b4      []byte
	rd                  bytes.Reader
}

func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// serveRun is everything one measured serving run shares.
type serveRun struct {
	o       options
	cfg     serveConfig
	in      inputs
	c       *cluster
	ks      *keyState
	phase   atomic.Int64
	traced  [maxWins]bool
	hasher  *guid.Hasher
	workers []*worker
}

func runServe(o options, cfg serveConfig) (*report, error) {
	n := serveKeys
	if o.toy {
		n = toyKeys
	}
	in := genInputs(o.seed, n)

	// Set up setupReps times; keep the last cluster for the run.
	var setups []float64
	var c *cluster
	for rep := 0; rep < setupReps; rep++ {
		if c != nil {
			c.close()
			c = nil
		}
		t0 := time.Now()
		var err error
		if c, err = buildCluster(o, cfg, in, rep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()
	freeGarbage()

	r := &serveRun{o: o, cfg: cfg, in: in, c: c, ks: newKeyState(n), hasher: c.res.Hasher()}
	perClient := int(o.run.Seconds()*80_000) + 1024
	for i := 0; i < serveClients; i++ {
		rng := rand.New(rand.NewSource(o.seed*1_000_003 + int64(i) + 1))
		w := &worker{id: i, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)),
			lookLat: make([]time.Duration, 0, perClient), updLat: make([]time.Duration, 0, int(float64(perClient)*cfg.updateFrac)+1)}
		w.got.NAs = make([]store.NA, 0, store.MaxNAs)
		w.view.NAs = make([]store.NA, 0, store.MaxNAs)
		w.upd.NAs = make([]store.NA, 0, store.MaxNAs)
		w.dec.NAs = make([]store.NA, 0, store.MaxNAs)
		if o.trace {
			w.rec = newRecorder(time.Now(), spanCap)
		}
		r.workers = append(r.workers, w)
	}

	// Window plan: untraced runs measure every window; traced runs
	// alternate untraced and traced windows so both see the same drift.
	wins := max(2, int(math.Round(o.run.Seconds())))
	if wins%2 == 1 && o.trace {
		wins++
	}
	wins = min(wins, maxWins)
	winLen := o.run / time.Duration(wins)
	for i := 0; i < wins; i++ {
		r.traced[i+1] = o.trace && i%2 == 1
	}
	warm := min(time.Second, o.run/5)

	cliBefore := c.cl.Metrics().Snapshot()
	nodeBefore := make([]metrics.Snapshot, len(c.nodes))
	for i, nd := range c.nodes {
		nodeBefore[i] = nd.Metrics().Snapshot()
	}
	engBefore := metrics.Default.Snapshot()

	var wg sync.WaitGroup
	r.phase.Store(phaseWarm)
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			r.loop(w)
		}(w)
	}
	time.Sleep(warm)
	tick0, steal0 := cpuTicks()
	var rt rtStats
	winDur := make([]time.Duration, wins+1)
	for i := 1; i <= wins; i++ {
		before := readRT()
		t0 := time.Now()
		r.phase.Store(int64(i))
		time.Sleep(winLen)
		winDur[i] = time.Since(t0)
		if !r.traced[i] {
			rt.add(before, readRT())
		}
	}
	r.phase.Store(phaseStop)
	wg.Wait()
	steal := stealNote(tick0, steal0)
	heap := liveHeapMB()
	for _, w := range r.workers { // the latency samples are the benchmark's own
		heap -= float64(8*(cap(w.lookLat)+cap(w.updLat))) / (1 << 20)
	}

	rep := newReport()
	var untracedOps, tracedOps int64
	var untracedDur, tracedDur time.Duration
	var look, upd []time.Duration
	for _, w := range r.workers {
		rep.Attempted += w.attempts
		rep.Failed += w.failed
		if w.firstErr != nil {
			rep.notef("client %d first failure: %v", w.id, w.firstErr)
		}
		for i := 1; i <= wins; i++ {
			if r.traced[i] {
				tracedOps += w.winOps[i]
			} else {
				untracedOps += w.winOps[i]
			}
		}
		look = append(look, w.lookLat...)
		upd = append(upd, w.updLat...)
	}
	for i := 1; i <= wins; i++ {
		if r.traced[i] {
			tracedDur += winDur[i]
		} else {
			untracedDur += winDur[i]
		}
	}
	rep.Correct = rep.Failed == 0
	rep.notef("ops/s per window: %s", windowRates(r.workers, winDur, wins))
	rep.notef("%s", steal)
	sortDurations(look)
	sortDurations(upd)
	opLat := look
	if cfg.updateFrac > 0 {
		opLat = upd // update-mix's defining op is the Update
	}
	if len(opLat) == 0 {
		return nil, fmt.Errorf("no ops completed in %v", o.run)
	}

	// End-to-end metrics.
	rep.set("setup_s", "s", median(setups), int64(len(setups)))
	opsPerS := float64(untracedOps) / untracedDur.Seconds()
	rep.set("ops_per_s", "1/s", opsPerS, untracedOps)
	rep.set("op_p50_us", "us", us(quantile(opLat, 0.50)), int64(len(opLat)))
	rep.set("op_p90_us", "us", us(quantile(opLat, 0.90)), int64(len(opLat)))
	rep.set("heap_mb", "MiB", heap, 1)

	// Per-layer metrics.
	rep.set("bench.lookup_p50_us", "us", us(quantile(look, 0.50)), int64(len(look)))
	rep.set("bench.lookup_p99_us", "us", us(quantile(look, 0.99)), int64(len(look)))
	rep.set("tail.lookup_p999_us", "us", us(quantile(look, 0.999)), int64(len(look)))
	rep.set("bench.update_p50_us", "us", us(quantile(upd, 0.50)), int64(len(upd)))
	rep.set("bench.update_p99_us", "us", us(quantile(upd, 0.99)), int64(len(upd)))
	rep.set("bench.fail_ratio", "ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Attempted)
	overhead := 0.0
	if tracedOps > 0 {
		overhead = 100 * (1 - (float64(tracedOps)/tracedDur.Seconds())/opsPerS)
	}
	rep.set("bench.tracing_overhead_pct", "%", overhead, tracedOps)
	rep.setRuntime(&rt, untracedOps)
	r.setClientServer(rep, cliBefore, nodeBefore)
	r.setProbes(rep)
	setEngine(rep, engBefore, metrics.Default.Snapshot())
	rep.set("topology.dijkstra_mean_us", "us", 0, 0)
	rep.set("workload.generate_ms", "ms", 0, 0)
	rep.set("experiments.world_ms", "ms", 0, 0)
	rep.set("experiments.eval_self_ms", "ms", 0, 0)
	fb, err := c.res.MeasureRehash(rehashSamples(o))
	if err != nil {
		return nil, err
	}
	rep.set("core.fallback_rate", "ratio", fb.FallbackRate(), int64(fb.Samples))
	if err := r.setStore(rep); err != nil {
		return nil, err
	}
	if o.trace {
		if err := dumpSpans(o, r.recorders(), rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func rehashSamples(o options) int {
	if o.toy {
		return 200
	}
	return 5000
}

// loop is one closed-loop client: it issues the next op as soon as the
// previous one returns, until the controller says stop.
func (r *serveRun) loop(w *worker) {
	n := len(r.in.keys)
	for {
		ph := r.phase.Load()
		if ph == phaseStop {
			return
		}
		update := r.cfg.updateFrac > 0 && w.rng.Float64() < r.cfg.updateFrac
		var k int
		if update {
			k = w.rng.Intn(n)
		} else {
			k = int(w.zipf.Uint64())
		}
		w.attempts++
		if ph > 0 {
			w.winOps[ph]++
		}
		if ph > 0 && r.traced[ph] {
			r.tracedOp(w, k, update)
			continue
		}
		t0 := time.Now()
		var err error
		if update {
			err = r.doUpdate(w, k)
		} else {
			err = r.doLookup(w, k)
		}
		d := time.Since(t0)
		if err != nil {
			w.fail(err)
			continue
		}
		if ph > 0 {
			if update {
				w.updLat = append(w.updLat, d)
			} else {
				w.lookLat = append(w.lookLat, d)
			}
		}
	}
}

// doUpdate moves key k to a new version and checks every replica acked.
func (r *serveRun) doUpdate(w *worker, k int) error {
	v := r.ks.issued[k].Add(1)
	r.in.fill(&w.upd, k, v)
	acked, err := r.c.cl.Update(w.upd)
	if err != nil {
		return fmt.Errorf("update key %d v%d: %w", k, v, err)
	}
	if acked != serveK {
		return fmt.Errorf("update key %d v%d: acked by %d of %d replicas", k, v, acked, serveK)
	}
	r.ks.ack(k, v)
	w.userB += int64(r.c.distinct[k]) * r.c.entryLen
	return nil
}

// doLookup resolves key k and checks the answer: the right GUID, a
// version no older than the last fully acked one and no newer than any
// issued, carrying exactly that version's locator.
func (r *serveRun) doLookup(w *worker, k int) error {
	floor := r.ks.acked[k].Load()
	if err := r.c.cl.LookupInto(r.in.keys[k], &w.got); err != nil {
		return fmt.Errorf("lookup key %d: %w", k, err)
	}
	ceil := r.ks.issued[k].Load()
	e := &w.got
	switch {
	case e.GUID != r.in.keys[k]:
		return fmt.Errorf("lookup key %d: answer for another GUID", k)
	case e.Version < floor:
		return fmt.Errorf("lookup key %d: stale version %d after v%d was acked", k, e.Version, floor)
	case e.Version > ceil:
		return fmt.Errorf("lookup key %d: version %d never written", k, e.Version)
	case len(e.NAs) != 1 || e.NAs[0] != r.in.na(k, e.Version):
		return fmt.Errorf("lookup key %d: wrong locator for v%d", k, e.Version)
	}
	return nil
}

// tracedOp runs one op inside an op span, with child spans around timed
// calls into the placement, hashing, wire-codec and store layers on the
// same key.
func (r *serveRun) tracedOp(w *worker, k int, update bool) {
	rec := w.rec
	w.opSeq++
	op := uint64(w.id)<<56 | w.opSeq
	g := r.in.keys[k]
	t0 := time.Now()
	var children time.Duration

	ta := time.Now()
	var err error
	w.places, err = r.c.res.PlaceInto(g, w.places[:0])
	tb := time.Now()
	children += rec.add(spanPlace, op, ta, tb)
	if err != nil {
		w.fail(err)
		return
	}
	for i := 0; i < serveK; i++ {
		w.hashSink ^= r.hasher.Hash(g, i)
	}
	ta = time.Now()
	children += rec.add(spanHash, op, tb, ta)

	if update {
		err = r.doUpdate(w, k)
	} else {
		err = r.doLookup(w, k)
	}
	tb = time.Now()
	children += rec.add(spanClient, op, ta, tb)
	if err != nil {
		w.fail(err)
		return
	}

	if update {
		err = r.updateCodec(w)
	} else {
		err = r.lookupCodec(w, g)
	}
	ta = time.Now()
	if update {
		children += rec.add(spanUpdateWire, op, tb, ta)
	} else {
		children += rec.add(spanLookupWire, op, tb, ta)
	}
	if err != nil {
		w.fail(err)
		return
	}

	if update {
		_, err = r.c.shadow.Put(w.upd)
		tb = time.Now()
		children += rec.add(spanStorePut, op, ta, tb)
	} else {
		if !r.c.nodes[w.places[0].AS].Store().ViewInto(g, &w.view) {
			err = fmt.Errorf("store view key %d: missing on its first replica", k)
		}
		tb = time.Now()
		children += rec.add(spanStoreView, op, ta, tb)
	}
	if err != nil {
		w.fail(err)
		return
	}
	rec.finishOp(op, t0, tb, children)
}

// lookupCodec runs one lookup's wire encoding and decoding on both sides
// through the public codec: request frame, server-side decode, response
// frame with the entry just read, client-side decode.
func (r *serveRun) lookupCodec(w *worker, g guid.GUID) error {
	w.b1 = wire.AppendGUID(w.b1[:0], g)
	req, err := wire.AppendFrameID(w.b2[:0], wire.MsgLookup, w.opSeq, w.b1)
	if err != nil {
		return err
	}
	w.b2 = req
	w.rd.Reset(req)
	_, _, payload, err := wire.ReadFrameIDInto(&w.rd, w.b3)
	if err != nil {
		return err
	}
	if g2, _, err := wire.DecodeGUID(payload); err != nil || g2 != g {
		return fmt.Errorf("lookup codec: GUID did not round-trip (%v)", err)
	}
	if w.b1, err = wire.AppendLookupResp(w.b1[:0], wire.LookupResp{Found: true, Entry: w.got}); err != nil {
		return err
	}
	resp, err := wire.AppendFrameID(w.b4[:0], wire.MsgLookupResp, w.opSeq, w.b1)
	if err != nil {
		return err
	}
	w.b4 = resp
	w.rd.Reset(resp)
	if _, _, payload, err = wire.ReadFrameIDInto(&w.rd, w.b3); err != nil {
		return err
	}
	w.b3 = payload
	found, err := wire.DecodeLookupRespInto(&w.dec, payload)
	if err != nil || !found || w.dec.Version != w.got.Version {
		return fmt.Errorf("lookup codec: entry did not round-trip (%v)", err)
	}
	w.wireB += int64(len(req) + len(resp))
	w.wireOps++
	return nil
}

// updateCodec runs one update's wire work: K request frames carrying the
// entry, K server-side decodes and K ack frames.
func (r *serveRun) updateCodec(w *worker) error {
	var err error
	if w.b1, err = wire.AppendEntry(w.b1[:0], w.upd); err != nil {
		return err
	}
	for i := 0; i < serveK; i++ {
		req, err := wire.AppendFrameID(w.b2[:0], wire.MsgInsert, w.opSeq, w.b1)
		if err != nil {
			return err
		}
		w.b2 = req
		w.rd.Reset(req)
		_, _, payload, err := wire.ReadFrameIDInto(&w.rd, w.b3)
		if err != nil {
			return err
		}
		w.b3 = payload
		if _, err := wire.DecodeEntryInto(&w.dec, payload); err != nil || w.dec.Version != w.upd.Version {
			return fmt.Errorf("update codec: entry did not round-trip (%v)", err)
		}
		ack, err := wire.AppendFrameID(w.b4[:0], wire.MsgInsertAck, w.opSeq, nil)
		if err != nil {
			return err
		}
		w.b4 = ack
		w.rd.Reset(ack)
		if _, _, _, err := wire.ReadFrameIDInto(&w.rd, w.b3); err != nil {
			return err
		}
		w.wireB += int64(len(req) + len(ack))
	}
	w.wireOps++
	return nil
}

func (r *serveRun) recorders() []*recorder {
	var recs []*recorder
	for _, w := range r.workers {
		recs = append(recs, w.rec)
	}
	return recs
}

// setClientServer derives the client, server and transport metrics from
// the registries' growth over the measured phase (exact means:
// histogram sum / count).
func (r *serveRun) setClientServer(rep *report, cliBefore metrics.Snapshot, nodeBefore []metrics.Snapshot) {
	cli := r.c.cl.Metrics().Snapshot().DeltaSince(cliBefore)
	att := cli.Histograms["client.attempt_us"]
	ins := cli.Histograms["client.op.insert_us"]
	lkp := cli.Histograms["client.op.lookup_us"]
	ops := lkp.Count + ins.Count
	rep.set("client.attempt_mean_us", "us", att.Mean(), int64(att.Count))
	rep.set("client.update_mean_us", "us", ins.Mean(), int64(ins.Count))
	perOp := 0.0
	if ops > 0 {
		perOp = float64(att.Count) / float64(ops)
	}
	rep.set("client.attempts_per_op", "count", perOp, int64(ops))
	for _, c := range []string{"retries", "failovers", "sheds", "timeouts"} {
		rep.set("client."+c, "count", float64(cli.Counters["client."+c]), int64(ops))
	}

	var lSum, iSum float64
	var lN, iN uint64
	var sheds, errs int64
	served := make([]float64, len(r.c.nodes))
	var total float64
	for i, nd := range r.c.nodes {
		s := nd.Metrics().Snapshot().DeltaSince(nodeBefore[i])
		l, in := s.Histograms["server.op.lookup_us"], s.Histograms["server.op.insert_us"]
		lSum, lN = lSum+l.Sum, lN+l.Count
		iSum, iN = iSum+in.Sum, iN+in.Count
		sheds += s.Counters["server.sheds_conn"] + s.Counters["server.sheds_global"]
		errs += s.Counters["server.errors"]
		served[i] = float64(l.Count + in.Count)
		total += served[i]
	}
	mean := func(sum float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	rep.set("server.lookup_service_mean_us", "us", mean(lSum, lN), int64(lN))
	rep.set("server.insert_service_mean_us", "us", mean(iSum, iN), int64(iN))
	rep.set("server.sheds", "count", float64(sheds), int64(lN+iN))
	rep.set("server.errors", "count", float64(errs), int64(lN+iN))
	share := 0.0
	for _, s := range served {
		if total > 0 && s/total > share {
			share = s / total
		}
	}
	rep.set("server.load_share_max", "ratio", share, int64(total))
	// Transport: what a client attempt costs beyond the server's own
	// service time (syscalls, scheduler handoffs, mux, writer).
	rep.set("wire.transport_mean_us", "us", att.Mean()-mean(lSum+iSum, lN+iN), int64(att.Count))
}

// setProbes derives the layer metrics timed by the traced ops' child
// spans.
func (r *serveRun) setProbes(rep *report) {
	all := &recorder{}
	var wireB, wireOps int64
	for _, w := range r.workers {
		if w.rec != nil {
			all.merge(w.rec)
		}
		wireB += w.wireB
		wireOps += w.wireOps
	}
	ns := func(name int) float64 { return float64(all.mean(name).Nanoseconds()) }
	rep.set("core.place_ns", "ns", ns(spanPlace), all.count[spanPlace])
	rep.set("guid.hash_ns", "ns", ns(spanHash)/serveK, all.count[spanHash]*serveK)
	rep.set("wire.lookup_codec_ns", "ns", ns(spanLookupWire), all.count[spanLookupWire])
	rep.set("wire.update_codec_ns", "ns", ns(spanUpdateWire), all.count[spanUpdateWire])
	perOp := 0.0
	if wireOps > 0 {
		perOp = float64(wireB) / float64(wireOps)
	}
	rep.set("wire.bytes_per_op", "B", perOp, wireOps)
	rep.set("store.view_ns", "ns", ns(spanStoreView), all.count[spanStoreView])
	rep.set("store.put_ns", "ns", ns(spanStorePut), all.count[spanStorePut])
	selfUs := 0.0
	if all.count[spanOp] > 0 {
		selfUs = us(all.self) / float64(all.count[spanOp])
	}
	rep.set("bench.op_self_us", "us", selfUs, all.count[spanOp])
}

// setStore records how many bytes the durable stores keep on disk per
// encoded entry byte the replicas acknowledged (0 for memory stores).
func (r *serveRun) setStore(rep *report) error {
	if r.c.dataDir == "" {
		rep.set("store.wal_bytes_per_user_byte", "ratio", 0, 0)
		return nil
	}
	user := r.c.ackBytes
	for _, w := range r.workers {
		user += w.userB
	}
	var disk int64
	for as := range r.c.nodes {
		err := filepath.WalkDir(filepath.Join(r.c.dataDir, fmt.Sprintf("node%d", as)), func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			disk += info.Size()
			return nil
		})
		if err != nil {
			return err
		}
	}
	rep.set("store.wal_bytes_per_user_byte", "ratio", float64(disk)/float64(user), user)
	return nil
}

// windowRates formats each measured window's throughput.
func windowRates(ws []*worker, winDur []time.Duration, wins int) string {
	var b []byte
	for i := 1; i <= wins; i++ {
		var n int64
		for _, w := range ws {
			n += w.winOps[i]
		}
		b = fmt.Appendf(b, "%.0f ", float64(n)/winDur[i].Seconds())
	}
	return string(b)
}
