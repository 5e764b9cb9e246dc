package server

import (
	"fmt"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
	"dmap/internal/wire"
)

func burstEntry(t *testing.T, i int) []byte {
	t.Helper()
	b, err := wire.AppendEntry(nil, store.Entry{
		GUID:    guid.New(fmt.Sprintf("burst-%d", i)),
		NAs:     []store.NA{{AS: 1, Addr: netaddr.AddrFromOctets(192, 0, 2, byte(i))}},
		Version: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestV1BurstInOneWrite: N sequential-protocol requests sent in one
// Write are all answered, in order — the buffered reader must not drop
// what it read ahead.
func TestV1BurstInOneWrite(t *testing.T) {
	n, addr := startNode(t)
	conn := dial(t, addr)
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	const frames = 20
	var burst []byte
	for i := 0; i < frames; i++ {
		var err error
		if burst, err = wire.AppendFrame(burst, wire.MsgInsert, burstEntry(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.MsgInsertAck {
			t.Fatalf("reply %d = (%v, %v)", i, typ, err)
		}
	}
	if got := n.Store().Len(); got != frames {
		t.Errorf("store holds %d entries, want %d", got, frames)
	}
}

// TestV2FramesCoalescedWithHello: a client that pipelines v2 frames
// right behind its hello, all in one Write, gets every one answered —
// the bytes the v1 loop buffered past the hello must reach the v2 loop.
func TestV2FramesCoalescedWithHello(t *testing.T) {
	n, addr := startNode(t)
	conn := dial(t, addr)
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	const frames = 20
	burst, err := wire.AppendFrame(nil, wire.MsgHello, wire.AppendHello(nil, wire.Version2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if burst, err = wire.AppendFrameID(burst, wire.MsgInsert, uint64(100+i), burstEntry(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.MsgHelloAck {
		t.Fatalf("hello reply = (%v, %v)", typ, err)
	}
	if v, _, err := wire.DecodeHelloAck(body); err != nil || v != wire.Version2 {
		t.Fatalf("hello ack = (v%d, %v), want v2", v, err)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < frames; i++ {
		typ, id, _, err := wire.ReadFrameID(conn)
		if err != nil || typ != wire.MsgInsertAck {
			t.Fatalf("reply %d = (%v, %v)", i, typ, err)
		}
		if id < 100 || id >= 100+frames || seen[id] {
			t.Fatalf("reply %d carries unexpected request ID %d", i, id)
		}
		seen[id] = true
	}
	if got := n.Store().Len(); got != frames {
		t.Errorf("store holds %d entries, want %d", got, frames)
	}
}
