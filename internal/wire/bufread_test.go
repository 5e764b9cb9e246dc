package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// countingReader counts Read calls on the stream under a bufio.Reader:
// each one stands for a read(2) on a real connection.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// framesStream encodes n identified frames back to back, as one
// coalesced Write puts them on the wire. Frame i carries i bytes of
// payload, frame n-1 a payload bigger than bufio's default buffer, so
// frames straddle buffer refills and one bypasses the buffer.
func framesStream(t *testing.T, n int) []byte {
	t.Helper()
	var stream []byte
	for i := 0; i < n; i++ {
		size := i
		if i == n-1 {
			size = 3 * 4096
		}
		var err error
		stream, err = AppendFrameID(stream, MsgLookupResp, uint64(i), bytes.Repeat([]byte{byte(i)}, size))
		if err != nil {
			t.Fatal(err)
		}
	}
	return stream
}

func readFrames(t *testing.T, r io.Reader, n int) {
	t.Helper()
	buf := make([]byte, 0, 64)
	for i := 0; i < n; i++ {
		typ, id, payload, err := ReadFrameIDInto(r, buf[:cap(buf)])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := i
		if i == n-1 {
			want = 3 * 4096
		}
		if typ != MsgLookupResp || id != uint64(i) || len(payload) != want || (want > 0 && payload[want-1] != byte(i)) {
			t.Fatalf("frame %d read as (%v, id %d, %d bytes)", i, typ, id, len(payload))
		}
		buf = payload
	}
	if _, _, _, err := ReadFrameIDInto(r, buf); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
}

// TestReadFrameIDBufferedBurst: N frames that arrived in one Write are
// all read out of one buffered fill, not two reads per frame.
func TestReadFrameIDBufferedBurst(t *testing.T) {
	const n = 40
	stream := framesStream(t, n)
	small := len(stream) - FrameIDHeaderLen - 3*4096 // everything before the big frame
	if small > 4096 {
		t.Fatalf("small frames take %d bytes; keep them inside one buffer fill", small)
	}
	cr := &countingReader{r: bytes.NewReader(stream)}
	readFrames(t, bufio.NewReader(cr), n)
	// One fill for the small frames and the big frame's header, a few
	// for the big payload, one to see EOF: far below 2 per frame.
	if cr.reads > 6 {
		t.Errorf("%d reads for %d frames; the buffer is not absorbing the burst", cr.reads, n)
	}
}

// TestReadFrameOneByteReads: a stream that delivers one byte per read
// still frames correctly, buffered or not, v2 and v1.
func TestReadFrameOneByteReads(t *testing.T) {
	const n = 12
	stream := framesStream(t, n)
	readFrames(t, iotest.OneByteReader(bytes.NewReader(stream)), n)
	readFrames(t, bufio.NewReader(iotest.OneByteReader(bytes.NewReader(stream))), n)

	var v1 bytes.Buffer
	for i := 0; i < n; i++ {
		if err := WriteFrame(&v1, MsgInsertAck, bytes.Repeat([]byte{byte(i)}, i)); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(iotest.OneByteReader(&v1))
	for i := 0; i < n; i++ {
		typ, payload, err := ReadFrameInto(r, nil)
		if err != nil || typ != MsgInsertAck || len(payload) != i {
			t.Fatalf("v1 frame %d: (%v, %d bytes, %v)", i, typ, len(payload), err)
		}
	}
}
