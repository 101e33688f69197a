package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	frames := []Frame{
		{TPing, []byte("hello")},
		{TSubmit, EncodeSubmit([]byte(`{"use_constraints":true}`), 1500, []byte("circuit text"))},
		{TStatus, []byte("j0001-deadbeef")},
		{TResultOK, bytes.Repeat([]byte{0xAB}, 4096)},
		{TPong, nil},
	}
	for _, f := range frames {
		if err := w.WriteFrame(f.Type, f.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf, 0)
	for i, want := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got type 0x%02x len %d, want type 0x%02x len %d",
				i, got.Type, len(got.Payload), want.Type, len(want.Payload))
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

func TestReaderRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, -1)
	if err := w.WriteFrame(TPing, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := NewReader(&buf, 16)
	_, err := r.ReadFrame()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestWriterRejectsOversize(t *testing.T) {
	w := NewWriter(io.Discard, 16)
	if err := w.WriteFrame(TPing, make([]byte, 17)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if err := w.WriteFrame(TPing, make([]byte, 16)); err != nil {
		t.Fatalf("at-cap frame: %v", err)
	}
}

func TestReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	if err := w.WriteFrame(TStatus, []byte("some-job-id")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		r := NewReader(bytes.NewReader(whole[:cut]), 0)
		if _, err := r.ReadFrame(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestSubmitPayloadRoundTrip(t *testing.T) {
	cases := []struct {
		cfg     []byte
		timeout uint32
		circuit []byte
	}{
		{nil, 0, nil},
		{[]byte(`{}`), 0, []byte("ckt")},
		{nil, 60000, []byte("a circuit\nwith lines\n")},
		{[]byte(`{"max_passes":4}`), 1, bytes.Repeat([]byte("x"), 10000)},
	}
	for i, c := range cases {
		cfg, ms, ckt, err := DecodeSubmit(EncodeSubmit(c.cfg, c.timeout, c.circuit))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(cfg, c.cfg) || ms != c.timeout || !bytes.Equal(ckt, c.circuit) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestDecodeSubmitMalformed(t *testing.T) {
	bad := [][]byte{
		{},
		{0},
		{0, 0, 0},
		{0xFF, 0xFF, 0xFF, 0xFF},        // config length way past payload
		{0, 0, 0, 2, 'x'},               // config truncated
		{0, 0, 0, 1, 'x', 0, 0},         // timeout truncated
		append([]byte{0, 0, 0, 5}, 'a'), // length exceeds remainder
	}
	for i, p := range bad {
		if _, _, _, err := DecodeSubmit(p); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("case %d: got %v, want ErrBadFrame", i, err)
		}
	}
}

func TestSubmittedRoundTrip(t *testing.T) {
	for _, cached := range []bool{false, true} {
		for _, dedup := range []bool{false, true} {
			rep, err := DecodeSubmitted(EncodeSubmitted(cached, dedup, "j0042-cafebabe"))
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != "j0042-cafebabe" || rep.Cached != cached || rep.Dedup != dedup {
				t.Fatalf("round trip: %+v (cached=%v dedup=%v)", rep, cached, dedup)
			}
		}
	}
	if _, err := DecodeSubmitted(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty submitted: got %v, want ErrBadFrame", err)
	}
}

func TestResultReqRoundTrip(t *testing.T) {
	kind, id, err := DecodeResultReq(EncodeResultReq(KindSVG, "j0007-01234567"))
	if err != nil || kind != KindSVG || id != "j0007-01234567" {
		t.Fatalf("got kind=%c id=%q err=%v", kind, id, err)
	}
	if _, _, err := DecodeResultReq(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty result req: got %v, want ErrBadFrame", err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	re := DecodeError(EncodeError(CodeQueueFull, "queue full"))
	if re.Code != CodeQueueFull || re.Msg != "queue full" {
		t.Fatalf("got %+v", re)
	}
	if re := DecodeError(nil); re.Code != CodeInternal {
		t.Fatalf("empty error frame: got %+v", re)
	}
}
