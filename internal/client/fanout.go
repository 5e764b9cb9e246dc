// Write fan-out: one pipelined frame per distinct replica AS.
//
// DMap writes every Insert and Update to all K hashed replicas
// (§III-A), and two hashes may land on one AS. The fan-out resolves the
// placements, collapses them to their distinct ASs and has the caller's
// goroutine send the first attempt to each before waiting on any reply,
// so a K-way write costs one frame per node and no goroutine at all
// unless an attempt fails or would have to dial first (DESIGN.md §7).
package client

import (
	"sync"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// replicaSet is one operation's replica ASs: the resolved placements
// and one replicaCall per distinct AS, in placement order. Sets are
// pooled, so a fan-out's happy path allocates none of this state.
type replicaSet struct {
	placements []core.Placement
	calls      []replicaCall  // copies counts each AS's placements
	wg         sync.WaitGroup // retry goroutines still running
}

var replicaSets = sync.Pool{New: func() any { return new(replicaSet) }}

// putReplicaSet recycles rs. The caller must be done with every call's
// outcome (bodies released) and every retry goroutine must have joined.
func putReplicaSet(rs *replicaSet) {
	clear(rs.calls) // drop payload, span and error references
	rs.calls = rs.calls[:0]
	rs.placements = rs.placements[:0]
	replicaSets.Put(rs)
}

// replicas resolves g's K placements (Algorithm 1) into a pooled
// replicaSet with one call per distinct AS, counting the placements
// each AS holds.
func (c *Cluster) replicas(g guid.GUID) (*replicaSet, error) {
	rs := replicaSets.Get().(*replicaSet)
	var err error
	rs.placements, err = c.resolver.PlaceInto(g, rs.placements)
	if err != nil {
		putReplicaSet(rs)
		return nil, err
	}
placements:
	for _, p := range rs.placements {
		for i := range rs.calls {
			if rs.calls[i].as == p.AS {
				rs.calls[i].copies++
				continue placements
			}
		}
		r := c.replica(p.AS)
		r.copies = 1
		rs.calls = append(rs.calls, r)
	}
	return rs, nil
}

// fanOut runs one request against every replica AS in rs and returns
// once each has its final outcome. The caller's goroutine sends the
// first attempt to every AS with a live pipelined connection, in
// placement order, then waits for those replies in the same order —
// each reply deadline counts from its own send, so the waits overlap
// like parallel round trips. Any other AS gets a goroutine that runs
// its whole retry policy: a dial, a handshake or a v1 round trip can
// block for up to a full Timeout and must not hold up the ASs behind
// it. So does an AS whose inline first attempt fails, for the rest of
// its policy; failure-path retries therefore overlap too, all bounded
// by opDeadline. (An inline send blocks only when a live connection's
// kernel buffer is full, and then for at most Timeout.) payload must
// stay valid until fanOut returns: retry goroutines resend it, and all
// of them have joined by then.
func (c *Cluster) fanOut(rs *replicaSet, sp *trace.Span, t wire.MsgType, payload []byte, opDeadline time.Time) {
	for i := range rs.calls {
		r := &rs.calls[i]
		r.begin(sp, t, payload, opDeadline)
		switch {
		case r.done:
		case c.tr.pipelined(r.addr):
			c.sendAttempt(r)
		default:
			c.runAsync(rs, r)
		}
	}
	for i := range rs.calls {
		r := &rs.calls[i]
		// async first: once a goroutine owns r the caller reads nothing
		// else of it until the join.
		if r.async || r.done {
			continue
		}
		if c.waitAttempt(r); !r.done {
			c.runAsync(rs, r)
		}
	}
	rs.wg.Wait()
}

// runAsync runs the rest of r's retry policy on a goroutine of its own.
func (c *Cluster) runAsync(rs *replicaSet, r *replicaCall) {
	r.async = true
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		c.runReplica(r)
	}()
}
