package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"dmap/internal/core"
	"dmap/internal/experiments"
	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/topology"
	"dmap/internal/workload"
)

// Simulation-workload sizing (NOTES.md). One op is one RunLatency call
// over a batch of lookups on the run's world; each batch draws its
// lookups from its own seed.
const (
	simAS       = 1_000
	simGUIDs    = 2_000
	simLookups  = 10_000
	toySimAS    = 200
	toySimGUIDs = 500
	toySimLooks = 2_000
)

var simKs = []int{1, 3, 5}

// simHashSink keeps timed hash calls from being optimised away.
var simHashSink uint32

// goldenTable is experiments.RunLatency's Table I output for the fixed
// goldenConfig below, as committed. Every run recomputes it and fails
// when one byte differs.
//
//go:embed testdata/table1_golden.txt
var goldenTable string

const goldenAS, goldenSeed = 400, 7

func goldenConfig() experiments.LatencyConfig {
	return experiments.LatencyConfig{Ks: simKs, NumGUIDs: 2000, NumLookups: 20_000,
		LocalReplica: true, Seed: goldenSeed, Workers: runtime.GOMAXPROCS(0)}
}

// goldenRun computes the golden table text.
func goldenRun() (string, error) {
	w, err := experiments.NewWorld(experiments.TestScale(goldenAS, goldenSeed))
	if err != nil {
		return "", err
	}
	res, err := experiments.RunLatency(w, goldenConfig())
	if err != nil {
		return "", err
	}
	return res.String(), nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

func runSimTable1(o options) (*report, error) {
	nAS, nGUIDs, nLookups := simAS, simGUIDs, simLookups
	if o.toy {
		nAS, nGUIDs, nLookups = toySimAS, toySimGUIDs, toySimLooks
	}
	var setups []float64
	var w *experiments.World
	for rep := 0; rep < setupReps; rep++ {
		w = nil
		freeGarbage()
		t0 := time.Now()
		var err error
		if w, err = experiments.NewWorld(experiments.TestScale(nAS, o.seed)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	resolver, err := core.NewResolver(guid.MustHasher(simKs[len(simKs)-1], 0), w.Table, 0)
	if err != nil {
		return nil, err
	}
	freeGarbage()

	rep := newReport()
	engBefore := metrics.Default.Snapshot()
	var rec *recorder
	if o.trace {
		rec = newRecorder(time.Now(), spanCap)
	}
	var untraced []time.Duration
	var tracedOps, untracedOps int64
	var tracedDur time.Duration
	var evalSelf []float64
	var rt rtStats
	var deadline time.Time
	var tick0, steal0 uint64
	// Batch -1 warms up (heap growth, page faults) and is not timed.
	for b := -1; b <= 0 || time.Now().Before(deadline); b++ {
		if b == 0 {
			deadline = time.Now().Add(o.run)
			tick0, steal0 = cpuTicks()
		}
		cfg := experiments.LatencyConfig{Ks: simKs, NumGUIDs: nGUIDs, NumLookups: nLookups,
			LocalReplica: true, Seed: o.seed*1_000_003 + int64(b), Workers: runtime.GOMAXPROCS(0)}
		traced := o.trace && b%2 == 1
		ops := int64(nLookups * len(simKs))
		rep.Attempted += ops
		var res *experiments.LatencyResult
		if traced {
			t0 := time.Now()
			var self float64
			res, self, err = tracedBatch(rec, uint64(b), w, resolver, cfg)
			if err != nil {
				return nil, err
			}
			tracedDur += time.Since(t0)
			tracedOps += ops
			evalSelf = append(evalSelf, self)
		} else {
			before := readRT()
			t0 := time.Now()
			res, err = experiments.RunLatency(w, cfg)
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			if b >= 0 {
				rt.add(before, readRT())
				untraced = append(untraced, d)
				untracedOps += ops
			}
		}
		if err := checkTable(res, nLookups); err != nil {
			rep.Failed += ops
			rep.notef("batch %d: %v", b, err)
		}
	}
	engAfter := metrics.Default.Snapshot()
	rep.notef("%s", stealNote(tick0, steal0))
	heap := liveHeapMB()
	runtime.KeepAlive(w)

	got, err := goldenRun()
	if err != nil {
		return nil, err
	}
	if got != goldenTable {
		rep.Failed++
		rep.notef("Table I golden mismatch: digest %s, want %s; got:\n%s", digest(got), digest(goldenTable), got)
	}
	rep.Attempted++
	rep.Correct = rep.Failed == 0

	var wall time.Duration
	for _, d := range untraced {
		wall += d
	}
	opsPerS := float64(untracedOps) / wall.Seconds()
	sortDurations(untraced)
	rep.set("setup_s", "s", median(setups), int64(len(setups)))
	rep.set("ops_per_s", "1/s", opsPerS, untracedOps)
	rep.set("op_p50_us", "us", us(quantile(untraced, 0.50)), int64(len(untraced)))
	rep.set("op_p90_us", "us", us(quantile(untraced, 0.90)), int64(len(untraced)))
	rep.set("heap_mb", "MiB", heap, 1)

	// Per-layer metrics. The serving layers are not exercised here.
	for _, n := range []string{"client.attempt_mean_us", "client.update_mean_us",
		"server.lookup_service_mean_us", "server.insert_service_mean_us",
		"wire.transport_mean_us", "bench.lookup_p50_us", "bench.lookup_p99_us",
		"tail.lookup_p999_us", "bench.update_p50_us", "bench.update_p99_us"} {
		rep.set(n, "us", 0, 0)
	}
	for _, n := range []string{"client.attempts_per_op", "client.retries", "client.failovers",
		"client.sheds", "client.timeouts", "server.sheds", "server.errors"} {
		rep.set(n, "count", 0, 0)
	}
	rep.set("server.load_share_max", "ratio", 0, 0)
	rep.set("wire.lookup_codec_ns", "ns", 0, 0)
	rep.set("wire.update_codec_ns", "ns", 0, 0)
	rep.set("wire.bytes_per_op", "B", 0, 0)
	rep.set("store.view_ns", "ns", 0, 0)
	rep.set("store.put_ns", "ns", 0, 0)
	rep.set("store.wal_bytes_per_user_byte", "ratio", 0, 0)
	rep.set("bench.fail_ratio", "ratio", float64(rep.Failed)/float64(rep.Attempted), rep.Attempted)

	rep.setRuntime(&rt, untracedOps)
	setEngine(rep, engBefore, engAfter)
	fb, err := resolver.MeasureRehash(rehashSamples(o))
	if err != nil {
		return nil, err
	}
	rep.set("core.fallback_rate", "ratio", fb.FallbackRate(), int64(fb.Samples))
	rep.set("experiments.world_ms", "ms", 1e3*median(setups), int64(len(setups)))

	all := &recorder{}
	if rec != nil {
		all.merge(rec)
	}
	maxK := int64(simKs[len(simKs)-1])
	perUnit := func(name int, units int64, scale float64) float64 {
		if units == 0 {
			return 0
		}
		return float64(all.total[name].Nanoseconds()) / float64(units) / scale
	}
	placements := all.count[spanPlace] * int64(nGUIDs) * maxK
	rep.set("core.place_ns", "ns", perUnit(spanPlace, placements, 1), placements)
	rep.set("guid.hash_ns", "ns", perUnit(spanHash, placements, 1), placements)
	rep.set("topology.dijkstra_mean_us", "us", perUnit(spanDijkstra, all.count[spanDijkstra], 1e3), all.count[spanDijkstra])
	rep.set("workload.generate_ms", "ms", perUnit(spanGenerate, all.count[spanGenerate], 1e6), all.count[spanGenerate])
	rep.set("experiments.eval_self_ms", "ms", median(evalSelf), int64(len(evalSelf)))
	overhead := 0.0
	if tracedOps > 0 {
		overhead = 100 * (1 - (float64(tracedOps)/tracedDur.Seconds())/opsPerS)
	}
	rep.set("bench.tracing_overhead_pct", "%", overhead, tracedOps)
	selfUs := 0.0
	if all.count[spanOp] > 0 {
		selfUs = us(all.self) / float64(all.count[spanOp])
	}
	rep.set("bench.op_self_us", "us", selfUs, all.count[spanOp])
	if o.trace {
		if err := dumpSpans(o, []*recorder{rec}, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedBatch runs one batch inside an op span whose children re-run,
// from outside, the public layer calls RunLatency is built from on the
// batch's own inputs: trace generation, the placement prelude, hashing,
// and one Dijkstra per distinct source. It returns RunLatency's result
// and its self time in ms: its wall time minus the generation and
// placement time and the Dijkstra time divided over the engine workers.
func tracedBatch(rec *recorder, op uint64, w *experiments.World, resolver *core.Resolver, cfg experiments.LatencyConfig) (*experiments.LatencyResult, float64, error) {
	t0 := time.Now()
	var children time.Duration

	ta := time.Now()
	tr, err := workload.Generate(workload.TraceConfig{NumGUIDs: cfg.NumGUIDs, NumLookups: cfg.NumLookups,
		SourceWeights: w.Graph.EndNodeWeights(), Seed: cfg.Seed})
	tb := time.Now()
	gen := rec.add(spanGenerate, op, ta, tb)
	children += gen
	if err != nil {
		return nil, 0, err
	}

	maxK := simKs[len(simKs)-1]
	for gi := 0; gi < cfg.NumGUIDs; gi++ {
		g := guid.FromUint64(uint64(gi) + 1)
		for r := 0; r < maxK; r++ {
			if _, err := resolver.PlaceReplica(g, r); err != nil {
				return nil, 0, err
			}
		}
	}
	ta = time.Now()
	place := rec.add(spanPlace, op, tb, ta)
	children += place

	h := resolver.Hasher()
	var sink uint32
	for gi := 0; gi < cfg.NumGUIDs; gi++ {
		g := guid.FromUint64(uint64(gi) + 1)
		for r := 0; r < maxK; r++ {
			sink ^= h.Hash(g, r)
		}
	}
	simHashSink = sink
	tb = time.Now()
	children += rec.add(spanHash, op, ta, tb)

	srcSet := make(map[int]bool)
	for _, ev := range tr.Lookups {
		srcSet[ev.SrcAS] = true
	}
	sources := make([]int, 0, len(srcSet))
	for s := range srcSet {
		sources = append(sources, s)
	}
	sort.Ints(sources)
	dist := make([]topology.Micros, w.NumAS())
	var dijkstra time.Duration
	ta = time.Now()
	for _, s := range sources {
		w.Graph.Dijkstra(s, dist)
		tb = time.Now()
		dijkstra += rec.add(spanDijkstra, op, ta, tb)
		ta = tb
	}
	children += dijkstra

	res, err := experiments.RunLatency(w, cfg)
	tb = time.Now()
	run := rec.add(spanRunLatency, op, ta, tb)
	children += run
	rec.finishOp(op, t0, tb, children)
	if err != nil {
		return nil, 0, err
	}
	workers := float64(max(cfg.Workers, 1))
	self := run - gen - place - time.Duration(float64(dijkstra)/workers)
	return res, float64(self) / 1e6, nil
}

// checkTable verifies a batch's Table I rows: one row per K, every
// lookup counted, finite positive latencies, and no row slower than a
// smaller K's (the K-replica sets nest and the nearest replica answers,
// so adding replicas can only lower each lookup's latency).
func checkTable(res *experiments.LatencyResult, lookups int) error {
	rows := res.Table1()
	if len(rows) != len(simKs) {
		return fmt.Errorf("%d Table I rows, want %d", len(rows), len(simKs))
	}
	for i, row := range rows {
		if row.K != simKs[i] {
			return fmt.Errorf("row %d is K=%d, want K=%d", i, row.K, simKs[i])
		}
		if n := res.PerK[row.K].N(); n != lookups {
			return fmt.Errorf("K=%d evaluated %d lookups, want %d", row.K, n, lookups)
		}
		for _, v := range []float64{row.Mean, row.Median, row.P95} {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("K=%d has latency %v", row.K, v)
			}
		}
		if row.Median > row.P95 {
			return fmt.Errorf("K=%d median %.3f above p95 %.3f", row.K, row.Median, row.P95)
		}
		if i > 0 {
			prev := rows[i-1]
			if row.Mean > prev.Mean || row.Median > prev.Median || row.P95 > prev.P95 {
				return fmt.Errorf("K=%d slower than K=%d", row.K, prev.K)
			}
		}
	}
	return nil
}

// setEngine records the simulation engine's metrics from metrics.Default
// growth between two snapshots.
func setEngine(rep *report, before, after metrics.Snapshot) {
	d := after.DeltaSince(before)
	u := d.Histograms["engine.unit_us"]
	rep.set("engine.unit_mean_us", "us", u.Mean(), int64(u.Count))
	occ := 0.0
	if wall := float64(d.Counters["engine.wall_us"]) * after.Gauges["engine.workers"]; wall > 0 {
		occ = float64(d.Counters["engine.busy_us"]) / wall
	}
	rep.set("engine.occupancy", "ratio", occ, d.Counters["engine.maps"])
	rep.set("engine.units", "count", float64(d.Counters["engine.units"]), d.Counters["engine.maps"])
}
