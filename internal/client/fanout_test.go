// Tests for the write fan-out: one frame per distinct replica AS on the
// happy path, parallel per-AS retries on the failure path.
package client

import (
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/wire"
)

// TestInsertOneFramePerAS: with K=3 replicas over two ASs every GUID's
// placements collide, and each distinct AS must see exactly one insert
// frame while Insert still reports all K placements acked.
func TestInsertOneFramePerAS(t *testing.T) {
	c, nodes := testCluster(t, 2, 3)
	e := clusterEntry("collides", 1)
	distinct := distinctASs(t, c, e.GUID)
	if len(distinct) >= 3 {
		t.Fatalf("K=3 over 2 ASs gave %d distinct ASs", len(distinct))
	}
	for v := uint64(1); v <= 2; v++ { // an Insert, then an Update
		e.Version = v
		acked, err := c.Update(e)
		if err != nil {
			t.Fatal(err)
		}
		if acked != 3 {
			t.Errorf("v%d: acked = %d, want K=3 (placements whose AS acked)", v, acked)
		}
	}
	for as, n := range nodes {
		want := int64(0)
		if slices.Contains(distinct, as) {
			want = 2
		}
		if got := n.Stats().Inserts; got != want {
			t.Errorf("AS %d served %d inserts, want %d (one per write per distinct replica AS)", as, got, want)
		}
	}
	if s := c.Stats(); s.Retries != 0 || s.Redials != 0 {
		t.Errorf("fault-free writes retried: %+v", s)
	}
}

// TestInsertRetriesFailedReplicasInParallel: of three distinct replica
// ASs one is live, one is dead (connection refused) and one sheds every
// request. Insert must report the live AS's ack, count every retry, and
// run the two failing ASs' retry policies side by side: the op takes
// about the longest retry cycle — no AS's backoff is slept in turn
// before another's retries start.
func TestInsertRetriesFailedReplicasInParallel(t *testing.T) {
	c, _ := testCluster(t, 20, 3)
	c.cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	g, distinct := threeDistinct(t, c)
	dead, shed := distinct[1], distinct[2]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nothing listens there any more: every dial is refused
	c.SetNode(dead, deadAddr)
	c.SetNode(shed, scriptedServer(t, func(int64, wire.MsgType, []byte) (wire.MsgType, []byte) {
		return wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindShed, "overloaded")
	}))

	// Each failing AS sleeps two backoffs (before attempts 2 and 3).
	cycle := func(as int) time.Duration { return c.cfg.Retry.Backoff(as, 2) + c.cfg.Retry.Backoff(as, 3) }
	e := clusterEntry("fan-out", 1)
	e.GUID = g
	start := time.Now()
	acked, err := c.Insert(e)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if acked != 1 {
		t.Errorf("acked = %d, want 1 (only the live replica AS)", acked)
	}
	s := c.Stats()
	if s.Retries != 4 {
		t.Errorf("retries = %d, want 4 (two per failing replica AS)", s.Retries)
	}
	if s.Sheds != 3 {
		t.Errorf("sheds = %d, want 3 (every attempt at the shedding AS)", s.Sheds)
	}
	if longest := max(cycle(dead), cycle(shed)); elapsed < longest {
		t.Errorf("insert took %v, less than one retry cycle (%v): retries were skipped", elapsed, longest)
	}
	if bound := max(cycle(dead), cycle(shed)) + c.cfg.Retry.BaseBackoff/2; elapsed >= bound {
		t.Errorf("insert took %v, over the longest retry cycle plus half a backoff (%v): failing replicas backed off one after the other", elapsed, bound)
	}
}

// TestFanOutBackoffsOverlap: two replica ASs with live v2 connections
// shed every write, so both first attempts go out inline and fail. Each
// AS's backoff must be slept on its own retry goroutine, not on the
// caller's before it collects the next reply: the op takes about the
// longer retry cycle, not one AS's backoff plus the other's cycle.
func TestFanOutBackoffsOverlap(t *testing.T) {
	c, _ := testCluster(t, 20, 3)
	c.cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	cycle := func(as int) time.Duration { return c.cfg.Retry.Backoff(as, 2) + c.cfg.Retry.Backoff(as, 3) }
	// The caller collects replies in placement order; make the later
	// shedding AS the one with the longer cycle, so a backoff slept in
	// turn shows up in the op's latency.
	var (
		g             guid.GUID
		first, second = -1, -1
	)
	for i := 0; first < 0; i++ {
		if i == 200 {
			t.Fatal("no GUID with a suitable replica order")
		}
		g = guid.New(fmt.Sprintf("backoff-%d", i))
		d := distinctASs(t, c, g)
		if len(d) == 3 && cycle(d[2]) >= cycle(d[1]) {
			first, second = d[1], d[2]
		}
	}
	for _, as := range []int{first, second} {
		c.SetNode(as, shedServerV2(t))
		if err := c.Ping(as); err != nil { // dial and hello: the conn is live
			t.Fatal(err)
		}
	}

	e := clusterEntry("backoff", 1)
	e.GUID = g
	start := time.Now()
	acked, err := c.Insert(e)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if acked != 1 {
		t.Errorf("acked = %d, want 1 (only the live replica AS)", acked)
	}
	if s := c.Stats(); s.Retries != 4 || s.Sheds != 6 {
		t.Errorf("retries = %d, sheds = %d; want 4 and 6 (three shed attempts per shedding AS)", s.Retries, s.Sheds)
	}
	longest := max(cycle(first), cycle(second))
	if elapsed < longest {
		t.Errorf("insert took %v, less than one retry cycle (%v): retries were skipped", elapsed, longest)
	}
	if bound := longest + c.cfg.Retry.BaseBackoff/2; elapsed >= bound {
		t.Errorf("insert took %v, over the longest retry cycle plus half a backoff (%v): a backoff was slept on the caller's goroutine", elapsed, bound)
	}
}

// shedServerV2 speaks the v2 protocol: it acks the hello, answers pings
// and sheds every other request under its request ID.
func shedServerV2(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	shed := wire.AppendErrorKind(nil, wire.ErrKindShed, "overloaded")
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, err := wire.ReadFrame(conn); err != nil {
					return
				}
				if err := wire.WriteFrame(conn, wire.MsgHelloAck, wire.AppendHelloAck(nil, wire.Version2)); err != nil {
					return
				}
				for {
					typ, id, _, err := wire.ReadFrameID(conn)
					if err != nil {
						return
					}
					rt, body := wire.MsgError, shed
					if typ == wire.MsgPing {
						rt, body = wire.MsgPong, nil
					}
					if err := wire.WriteFrameID(conn, rt, id, body); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestFanOutV1RepliesOverlap: a v1 peer's whole round trip happens
// inside send, so a ForceV1 client must still overlap the replica ASs'
// round trips. Each of three distinct replica ASs answers after a
// delay; the insert must take about one delay, not three.
func TestFanOutV1RepliesOverlap(t *testing.T) {
	c, _ := testCluster(t, 20, 3)
	c.cfg.ForceV1 = true
	g, distinct := threeDistinct(t, c)
	const delay = 150 * time.Millisecond
	for _, as := range distinct {
		c.SetNode(as, scriptedServer(t, func(int64, wire.MsgType, []byte) (wire.MsgType, []byte) {
			time.Sleep(delay)
			return wire.MsgInsertAck, nil
		}))
	}
	e := clusterEntry("v1-fan-out", 1)
	e.GUID = g
	start := time.Now()
	acked, err := c.Insert(e)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if acked != 3 {
		t.Errorf("acked = %d, want 3", acked)
	}
	if elapsed >= 2*delay {
		t.Errorf("insert took %v for three %v round trips: v1 replicas were written one after the other", elapsed, delay)
	}
}

// TestFanOutHungReplicaDoesNotDelayOthers: the first replica AS accepts
// connections and never answers, so its dial succeeds and its hello
// hangs for a whole Timeout. The other replica ASs must still get
// their frames, and ack, straight away.
func TestFanOutHungReplicaDoesNotDelayOthers(t *testing.T) {
	c, nodes := testCluster(t, 20, 3)
	c.cfg.Timeout = time.Second
	c.cfg.Retry = RetryPolicy{MaxAttempts: 1}
	g, distinct := threeDistinct(t, c)
	c.SetNode(distinct[0], blackholeServer(t))

	e := clusterEntry("hung-fan-out", 1)
	e.GUID = g
	type result struct {
		acked int
		err   error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		acked, err := c.Insert(e)
		done <- result{acked, err}
	}()
	for _, as := range distinct[1:] {
		for nodes[as].Stats().Inserts == 0 {
			if time.Since(start) >= c.cfg.Timeout/2 {
				t.Fatalf("AS %d had no insert %v into the op: its frame waited on the hung replica", as, time.Since(start))
			}
			time.Sleep(time.Millisecond)
		}
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.acked != 2 {
		t.Errorf("acked = %d, want 2 (the live replica ASs)", r.acked)
	}
	if s := c.Stats(); s.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1 (the hung replica's hello)", s.Timeouts)
	}
}

// threeDistinct finds a GUID whose K=3 replicas land on three distinct
// ASs, returning it with those ASs in placement order.
func threeDistinct(t *testing.T, c *Cluster) (guid.GUID, []int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		g := guid.New(fmt.Sprintf("fan-out-%d", i))
		if distinct := distinctASs(t, c, g); len(distinct) == 3 {
			return g, distinct
		}
	}
	t.Fatal("no GUID with three distinct replica ASs")
	return guid.GUID{}, nil
}

// blackholeServer accepts connections and reads them without ever
// answering, like a node that is up but hung.
func blackholeServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String()
}
