package transport

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes into the frame reader (it must fail
// cleanly, never panic or over-allocate) and checks that frames written by
// writeFrame round-trip.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameEnd})
	f.Add([]byte{frameData, 3, 'a', 'b', 'c'})
	f.Add([]byte{frameData, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary input: parse frames until an error or exhaustion.
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			payload, end, err := readFrame(br, 1<<16)
			if err != nil {
				break
			}
			if end {
				continue
			}
			_ = payload
		}

		// Round trip: data as a payload must come back byte-identical,
		// followed by a clean end frame.
		if len(data) > 1<<16 {
			return
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeFrame(bw, data); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		if err := writeEndFrame(bw); err != nil {
			t.Fatalf("writeEndFrame: %v", err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		br = bufio.NewReader(&buf)
		payload, end, err := readFrame(br, 1<<16)
		if err != nil || end {
			t.Fatalf("readFrame after writeFrame: payload=%v end=%v err=%v", payload, end, err)
		}
		if !bytes.Equal(payload, data) {
			t.Fatalf("payload round trip mismatch: got %d bytes, want %d", len(payload), len(data))
		}
		if _, end, err := readFrame(br, 1<<16); err != nil || !end {
			t.Fatalf("end frame round trip: end=%v err=%v", end, err)
		}
	})
}

// FuzzReadHandshake feeds arbitrary bytes into the handshake reader and
// checks that well-formed version-5 handshakes round-trip, including the
// trace field in its empty, 16-byte, and arbitrary (bounded) forms, and that
// the same handshake stamped with version 4 is refused.
func FuzzReadHandshake(f *testing.F) {
	f.Add([]byte{}, "job", uint16(0), []byte{})
	f.Add([]byte("SQX1"), "a", uint16(7), []byte{})
	f.Add(appendHandshake(nil, "fuzz-seed", 2, nil), "fuzz-seed", uint16(2), []byte{})
	trace16 := bytes.Repeat([]byte{0xab}, 16)
	f.Add(appendHandshake(nil, "traced", 1, trace16), "traced", uint16(1), trace16)
	f.Fuzz(func(t *testing.T, data []byte, jobID string, sender uint16, trace []byte) {
		// Arbitrary input must not panic.
		_, _, _, _ = readHandshake(bufio.NewReader(bytes.NewReader(data)))

		// Round trip for any valid job id and bounded trace field.
		if jobID == "" || len(jobID) > maxJobIDLen || len(trace) > maxTraceLen {
			return
		}
		hs := appendHandshake(nil, jobID, int(sender), trace)
		gotJob, gotSender, gotTrace, err := readHandshake(bufio.NewReader(bytes.NewReader(hs)))
		if err != nil {
			t.Fatalf("readHandshake(appendHandshake(%q, %d, %d-byte trace)): %v", jobID, sender, len(trace), err)
		}
		if gotJob != jobID || gotSender != int(sender) {
			t.Fatalf("handshake round trip: got (%q, %d), want (%q, %d)", gotJob, gotSender, jobID, sender)
		}
		if len(trace) == 0 {
			if len(gotTrace) != 0 {
				t.Fatalf("empty trace came back as %d bytes", len(gotTrace))
			}
		} else if !bytes.Equal(gotTrace, trace) {
			t.Fatalf("trace round trip: got %x, want %x", gotTrace, trace)
		}

		hs[len(protocolMagic)] = 4
		if _, _, _, err := readHandshake(bufio.NewReader(bytes.NewReader(hs))); err == nil {
			t.Fatalf("a version-4 handshake for %q was accepted", jobID)
		}
	})
}
