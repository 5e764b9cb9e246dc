package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. An op span wraps one client call (or one RunLatency batch);
// the other names are its children: timed calls into one public layer
// API on the op's own keys, made from this package. The program itself
// is not instrumented.
const (
	spanOp         = iota // the whole op, children included
	spanClient            // client.Cluster.LookupInto / Update
	spanPlace             // core.Resolver.PlaceInto
	spanHash              // guid.Hasher.Hash over all K replicas
	spanLookupWire        // wire codec of one lookup round trip
	spanUpdateWire        // wire codec of one update round trip
	spanStoreView         // store.Store.ViewInto on a replica's store
	spanStorePut          // store.Store.Put on the shadow store
	spanGenerate          // workload.Generate of the batch's trace
	spanDijkstra          // topology.Graph.Dijkstra per distinct source
	spanRunLatency        // experiments.RunLatency
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "client.call", "core.place", "guid.hash", "wire.lookup_codec",
	"wire.update_codec", "store.view", "store.put", "workload.generate",
	"topology.dijkstra", "experiments.run_latency",
}

// span is one recorded interval. Start and End are nanoseconds since the
// recorder's base instant; Op identifies the op span the span belongs
// to (an op span's own Op is its ID).
type span struct {
	Name       uint8
	Op         uint64
	Start, End int64
}

// recorder keeps the spans of one goroutine in memory, up to the
// capacity it was made with, so recording never allocates. It is not
// safe for concurrent use: each closed-loop client owns one.
type recorder struct {
	base  time.Time
	spans []span
	// Per-name totals, kept alongside the raw spans so the summary does
	// not need a second pass.
	count [numSpanNames]int64
	total [numSpanNames]time.Duration
	self  time.Duration // op spans' duration minus their children's
}

func newRecorder(base time.Time, capacity int) *recorder {
	return &recorder{base: base, spans: make([]span, 0, capacity)}
}

// add records one span of name over [t0, t1) under op.
func (r *recorder) add(name int, op uint64, t0, t1 time.Time) time.Duration {
	d := t1.Sub(t0)
	r.count[name]++
	r.total[name] += d
	if len(r.spans) < cap(r.spans) { // beyond capacity only the totals grow
		r.spans = append(r.spans, span{Name: uint8(name), Op: op, Start: t0.Sub(r.base).Nanoseconds(), End: t1.Sub(r.base).Nanoseconds()})
	}
	return d
}

// finishOp records the op span and its self time: the op's duration
// minus the time its (sequential, non-overlapping) children covered.
func (r *recorder) finishOp(op uint64, t0, t1 time.Time, children time.Duration) {
	d := r.add(spanOp, op, t0, t1)
	r.self += d - children
}

// mean returns the mean duration of spans called name, or 0 if none.
func (r *recorder) mean(name int) time.Duration {
	if r.count[name] == 0 {
		return 0
	}
	return r.total[name] / time.Duration(r.count[name])
}

// merge folds o's totals into r (spans stay with their owner).
func (r *recorder) merge(o *recorder) {
	for i := range r.count {
		r.count[i] += o.count[i]
		r.total[i] += o.total[i]
	}
	r.self += o.self
}

// writeSpans writes every span of recs as tab-separated lines
// (recorder, name, op, start_ns, end_ns) to path.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "# recorder\tname\top\tstart_ns\tend_ns")
	for i, r := range recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, spanNames[s.Name], s.Op, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpSpans writes the traced run's spans under o.outDir.
func dumpSpans(o options, recs []*recorder, rep *report) error {
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.tsv", o.workload, o.seed))
	if err := writeSpans(path, recs); err != nil {
		return err
	}
	rep.notef("spans written to %s", path)
	return nil
}
