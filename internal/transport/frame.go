package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire protocol, version 5. Every ordered peer pair (i -> j) of a job
// attempt uses one TCP connection, opened by i. The dialer starts with a
// handshake:
//
//	magic "SQX1" | version byte | uvarint len(jobID) | jobID | uvarint sender
//	| uvarint len(trace) | trace
//
// and the acceptor answers with a single ack byte (the protocol version).
// The job id names one attempt: a scheduler retrying a job opens the retry
// under a fresh id, so a zombie sender of a dead attempt names an id no open
// exchange has, and its connection is parked until the adopt timeout drops
// it. The trace field carries the dialer's distributed-tracing context
// (internal/obs wire form: 8 bytes trace id + 8 bytes parent span id) so the
// receive side of a shuffle stream can be recorded under the same trace as
// the sender; it is empty when the dialer traces nothing. After the
// handshake the connection carries length-prefixed frames:
//
//	type 0x01 (data) | uvarint payload length | payload
//	type 0x02 (end)                                      — sender is done
//
// All varints are unsigned LEB128. The end frame is the shuffle barrier: a
// receiver that has seen the end frame of every remote peer knows its
// partitions are complete. The transport does not look into a payload; the
// engine's is a sorted run of group records (internal/mapreduce, run.go):
//
//	(uvarint len | key | uvarint count | values)*   in encoded-key order
//
// cut at about 1 MiB per payload. Version 4 carried one more varint, an
// attempt number, after the sender index; the bump makes a stale peer's
// handshake fail instead of that varint being misread as the trace length.
const (
	protocolMagic   = "SQX1"
	protocolVersion = byte(5)

	frameData = byte(1)
	frameEnd  = byte(2)

	// maxJobIDLen bounds the handshake so a garbage connection cannot make
	// the acceptor buffer an arbitrarily long "job id".
	maxJobIDLen = 256
	// maxTraceLen bounds the handshake's trace-context field. The obs wire
	// form is 16 bytes; the bound leaves headroom for future context without
	// letting a garbage handshake demand a large buffer.
	maxTraceLen = 64
	// maxPeerIndex bounds the sender index claimed in a handshake.
	maxPeerIndex = 1 << 20
)

// appendHandshake appends the dialer's opening message. trace is the obs
// wire-form trace context (possibly empty).
func appendHandshake(buf []byte, jobID string, sender int, trace []byte) []byte {
	buf = append(buf, protocolMagic...)
	buf = append(buf, protocolVersion)
	buf = binary.AppendUvarint(buf, uint64(len(jobID)))
	buf = append(buf, jobID...)
	buf = binary.AppendUvarint(buf, uint64(sender))
	buf = binary.AppendUvarint(buf, uint64(len(trace)))
	buf = append(buf, trace...)
	return buf
}

// readHandshake reads and validates a dialer's opening message.
func readHandshake(br *bufio.Reader) (jobID string, sender int, trace []byte, err error) {
	head := make([]byte, len(protocolMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return "", 0, nil, fmt.Errorf("transport: reading handshake: %w", err)
	}
	if string(head[:len(protocolMagic)]) != protocolMagic {
		return "", 0, nil, errors.New("transport: bad handshake magic")
	}
	if head[len(protocolMagic)] != protocolVersion {
		return "", 0, nil, fmt.Errorf("transport: protocol version %d, want %d", head[len(protocolMagic)], protocolVersion)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", 0, nil, fmt.Errorf("transport: reading job id length: %w", err)
	}
	if n == 0 || n > maxJobIDLen {
		return "", 0, nil, fmt.Errorf("transport: job id length %d out of range", n)
	}
	id := make([]byte, n)
	if _, err := io.ReadFull(br, id); err != nil {
		return "", 0, nil, fmt.Errorf("transport: reading job id: %w", err)
	}
	s, err := binary.ReadUvarint(br)
	if err != nil {
		return "", 0, nil, fmt.Errorf("transport: reading sender index: %w", err)
	}
	if s >= maxPeerIndex {
		return "", 0, nil, fmt.Errorf("transport: sender index %d out of range", s)
	}
	tn, err := binary.ReadUvarint(br)
	if err != nil {
		return "", 0, nil, fmt.Errorf("transport: reading trace length: %w", err)
	}
	if tn > maxTraceLen {
		return "", 0, nil, fmt.Errorf("transport: trace context length %d out of range", tn)
	}
	if tn > 0 {
		trace = make([]byte, tn)
		if _, err := io.ReadFull(br, trace); err != nil {
			return "", 0, nil, fmt.Errorf("transport: reading trace context: %w", err)
		}
	}
	return string(id), int(s), trace, nil
}

// writeFrame writes one data frame.
func writeFrame(bw *bufio.Writer, payload []byte) error {
	var head [binary.MaxVarintLen64 + 1]byte
	head[0] = frameData
	n := binary.PutUvarint(head[1:], uint64(len(payload)))
	if _, err := bw.Write(head[:1+n]); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// writeEndFrame writes the end-of-stream frame.
func writeEndFrame(bw *bufio.Writer) error {
	return bw.WriteByte(frameEnd)
}

// readFrame reads the next frame. It returns (payload, false) for a data
// frame and (nil, true) for the end frame. The payload is freshly allocated
// and owned by the caller.
func readFrame(br *bufio.Reader, maxFrame int) (payload []byte, end bool, err error) {
	t, err := br.ReadByte()
	if err != nil {
		return nil, false, err
	}
	switch t {
	case frameEnd:
		return nil, true, nil
	case frameData:
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, false, fmt.Errorf("transport: reading frame length: %w", err)
		}
		if n > uint64(maxFrame) {
			return nil, false, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, maxFrame)
		}
		payload = make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, false, fmt.Errorf("transport: reading frame payload: %w", err)
		}
		return payload, false, nil
	default:
		return nil, false, fmt.Errorf("transport: unknown frame type 0x%02x", t)
	}
}
