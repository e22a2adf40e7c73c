package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// wordCountJob is the shared fixture of the exchange tests.
func wordCountJob() Job[string, string, int, string] {
	return Job[string, string, int, string]{
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Combine: func(_ string, vs []int) []int {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			return []int{sum}
		},
		Reduce: func(k string, vs []int, emit func(string)) {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			emit(fmt.Sprintf("%s=%d", k, sum))
		},
		Hash:   HashString,
		SizeOf: func(k string, _ int) int { return len(k) + 1 },
	}
}

var wordCountInputs = []string{
	"the quick brown fox",
	"the lazy dog",
	"the quick dog jumps over the lazy fox",
	"a fox a dog a quick brown fox",
}

// runAlone runs the job as the only peer of the process, failing the test on
// error.
func runAlone(t testing.TB, inputs []string, cfg Config, job Job[string, string, int, string]) ([]string, Metrics) {
	t.Helper()
	out, metrics, err := Run(inputs, cfg, job, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out, metrics
}

func TestRunExchangeMultiPeerLoopback(t *testing.T) {
	job := spillWordCountJob()
	want, _ := runAlone(t, wordCountInputs, Config{Workers: 2}, job)
	sort.Strings(want)

	got, _, errs := runGroup(job, newMemFabric(3), splitInputs(wordCountInputs, 3), func(int) Config {
		return Config{Workers: 2}
	})
	for p, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", p, err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-peer output differs:\n got %v\nwant %v", got, want)
	}
}

func TestRunExchangeRequiresHash(t *testing.T) {
	job := spillWordCountJob()
	job.Hash = nil
	_, _, err := Run(wordCountInputs, Config{}, job, newMemFabric(2)[0])
	if !errors.Is(err, errPeersNeedHash) {
		t.Fatalf("multi-peer job without Hash: err = %v, want %v", err, errPeersNeedHash)
	}
}

// TestRunPeersRequireCodec: frames cannot cross a wire exchange without a
// codec, so a codec-less multi-peer run fails up front with the typed error,
// while a codec-less run alone in the process (what internal/baseline/lash
// does) still works.
func TestRunPeersRequireCodec(t *testing.T) {
	job := wordCountJob() // no codec
	if _, _, err := Run(wordCountInputs, Config{}, job, newMemFabric(2)[0]); !errors.Is(err, errShuffleNeedsCodec) {
		t.Fatalf("codec-less multi-peer run: err = %v, want %v", err, errShuffleNeedsCodec)
	}
	got, _ := runAlone(t, wordCountInputs, Config{Workers: 2}, job)
	sort.Strings(got)
	if want := wantOutput(job, wordCountInputs); !reflect.DeepEqual(got, want) {
		t.Errorf("codec-less run alone = %v, want %v", got, want)
	}
}

// memFabric is the in-memory ByteExchange of the multi-peer tests: peers of
// one group are connected by channels, without a real network. Frames are
// copied on Send (the contract allows the caller to reuse the buffer) and byte
// counts include a mock frame header.
type memFabric struct {
	self    int
	inboxes []chan []byte
	open    int
	mu      sync.Mutex
	out     int64
}

func newMemFabric(n int) []ByteExchange {
	inboxes := make([]chan []byte, n)
	for i := range inboxes {
		inboxes[i] = make(chan []byte, 1024)
	}
	peers := make([]ByteExchange, n)
	for i := range peers {
		peers[i] = &memFabric{self: i, inboxes: inboxes, open: n - 1}
	}
	return peers
}

func (m *memFabric) NumPeers() int { return len(m.inboxes) }
func (m *memFabric) Self() int     { return m.self }

func (m *memFabric) Send(dst int, frame []byte) error {
	if dst == m.self {
		return fmt.Errorf("self-send reached the fabric")
	}
	cp := append([]byte(nil), frame...)
	m.mu.Lock()
	m.out += int64(1 + UvarintLen(uint64(len(frame))) + len(frame))
	m.mu.Unlock()
	m.inboxes[dst] <- cp
	return nil
}

func (m *memFabric) CloseSend() error {
	for i, inbox := range m.inboxes {
		if i != m.self {
			inbox <- nil // end-of-stream marker
		}
	}
	return nil
}

func (m *memFabric) Recv() ([]byte, error) {
	for m.open > 0 {
		frame := <-m.inboxes[m.self]
		if frame == nil {
			m.open--
			continue
		}
		return frame, nil
	}
	return nil, io.EOF
}

func (m *memFabric) WireBytesOut() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.out
}

func testCodec() FrameCodec[string, int] {
	return FrameCodec[string, int]{
		AppendKey: func(buf []byte, k string) []byte {
			buf = AppendUvarint(buf, uint64(len(k)))
			return append(buf, k...)
		},
		ReadKey: func(data []byte, pos int) (string, int, error) {
			n, pos, err := ReadUvarint(data, pos)
			if err != nil {
				return "", 0, err
			}
			if uint64(len(data)-pos) < n {
				return "", 0, fmt.Errorf("truncated key")
			}
			return string(data[pos : pos+int(n)]), pos + int(n), nil
		},
		AppendValue: func(buf []byte, v int) []byte { return AppendUvarint(buf, uint64(v)) },
		ReadValue: func(data []byte, pos int) (int, int, error) {
			n, pos, err := ReadUvarint(data, pos)
			return int(n), pos, err
		},
	}
}

// TestRunExchangeOverFrameFabric: on a wire exchange, ShuffleBytes is what
// the fabric counted as written, and RemoteShuffle says so.
func TestRunExchangeOverFrameFabric(t *testing.T) {
	job := spillWordCountJob()
	want, _ := runAlone(t, wordCountInputs, Config{Workers: 2}, job)
	sort.Strings(want)

	group := newMemFabric(3)
	got, metrics, errs := runGroup(job, group, splitInputs(wordCountInputs, len(group)), func(int) Config {
		return Config{Workers: 2}
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("frame-fabric output differs:\n got %v\nwant %v", got, want)
	}
	var total int64
	for p, m := range metrics {
		if errs[p] != nil {
			t.Fatalf("peer %d: %v", p, errs[p])
		}
		if !m.RemoteShuffle || m.ShuffleBytes != group[p].WireBytesOut() {
			t.Errorf("peer %d: RemoteShuffle %v, ShuffleBytes %d; want true, the fabric's %d",
				p, m.RemoteShuffle, m.ShuffleBytes, group[p].WireBytesOut())
		}
		total += m.ShuffleBytes
	}
	if total <= 0 {
		t.Error("expected wire bytes on the fabric")
	}
}

// recordingFabric keeps a copy of every frame its peer sends, per
// destination.
type recordingFabric struct {
	ByteExchange
	mu   sync.Mutex
	sent map[int][]string
}

func (r *recordingFabric) Send(dst int, frame []byte) error {
	r.mu.Lock()
	r.sent[dst] = append(r.sent[dst], string(frame))
	r.mu.Unlock()
	return r.ByteExchange.Send(dst, frame)
}

// TestSentFramesAreEncodedBatches pins the wire format, which is what keeps
// transport byte counts comparable across versions: on an unbounded shuffle
// every map worker hands each destination one run, sent as one payload (the
// runs here are far below spillChunkBytes), and that payload is a sorted run
// whose records are exactly the worker's combined groups for the
// destination — each record's bytes after its length prefix are EncodeBatch
// of one key and its combined values. With and without a combiner, so a
// record carries one value or many.
func TestSentFramesAreEncodedBatches(t *testing.T) {
	inputs := spillInputs(60)
	const peers, workers = 3, 2
	splits := splitInputs(inputs, peers)
	combined, raw := spillWordCountJob(), spillWordCountJob()
	raw.Combine = nil
	for _, job := range []Job[string, string, int, string]{combined, raw} {
		group := newMemFabric(peers)
		recorders := make([]*recordingFabric, peers)
		for p := range group {
			recorders[p] = &recordingFabric{ByteExchange: group[p], sent: map[int][]string{}}
			group[p] = recorders[p]
		}
		_, _, errs := runGroup(job, group, splits, func(int) Config {
			return Config{Workers: workers}
		})
		for p, split := range splits {
			if errs[p] != nil {
				t.Fatalf("peer %d: %v", p, errs[p])
			}
			want, wantRuns := map[int][]string{}, map[int]int{}
			for w := 0; w < workers; w++ {
				groups := map[string][]int{}
				for i := w; i < len(split); i += workers {
					job.Map(split[i], func(k string, v int) { groups[k] = append(groups[k], v) })
				}
				dsts := map[int]bool{}
				for k, vs := range groups {
					if dst := int(job.Hash(k) % peers); dst != p {
						if job.Combine != nil {
							vs = job.Combine(k, vs)
						}
						frame := job.Codec.EncodeBatch(nil, KeyBatch[string, int]{Key: k, Values: vs})
						want[dst] = append(want[dst], string(frame))
						dsts[dst] = true
					}
				}
				for dst := range dsts {
					wantRuns[dst]++
				}
			}
			got := map[int][]string{}
			for dst, payloads := range recorders[p].sent {
				if len(payloads) != wantRuns[dst] {
					t.Errorf("combiner %v: peer %d sent %d payloads to peer %d, want one per map worker's run: %d",
						job.Combine != nil, p, len(payloads), dst, wantRuns[dst])
				}
				for _, payload := range payloads {
					r := &runReader[string, int]{codec: job.Codec, data: []byte(payload)}
					var last []byte
					for {
						rec, err := r.next()
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Fatalf("combiner %v: peer %d sent a payload that is not a sorted run: %v", job.Combine != nil, p, err)
						}
						if bytes.Equal(rec.keyBytes, last) {
							t.Errorf("combiner %v: peer %d sent a key twice in one run", job.Combine != nil, p)
						}
						last = rec.keyBytes
						body := append(bytes.Clone(rec.keyBytes), AppendUvarint(nil, uint64(rec.count))...)
						got[dst] = append(got[dst], string(append(body, rec.vals...)))
					}
				}
			}
			for dst := range want {
				sort.Strings(want[dst])
				sort.Strings(got[dst])
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("combiner %v: peer %d sent records that are not the encoded batches", job.Combine != nil, p)
			}
		}
	}
}

// injectingFabric hands its peer the payloads in bad before anything its
// fabric delivers.
type injectingFabric struct {
	ByteExchange
	bad [][]byte
}

func (f *injectingFabric) Recv() ([]byte, error) {
	if len(f.bad) > 0 {
		p := f.bad[0]
		f.bad = f.bad[1:]
		return p, nil
	}
	return f.ByteExchange.Recv()
}

// TestRunRejectsCorruptRuns: a payload that is not a sorted run — a torn
// record, a count larger than its bytes, keys out of encoded order — fails
// the receiving peer's Run with an error, while the other peers of a 3-peer
// fabric still complete their barrier and their run. No goroutine outlives
// the runs, and the failed peer's spill directory is removed.
func TestRunRejectsCorruptRuns(t *testing.T) {
	codec := testCodec()
	valid, err := encodeRun(&codec, 0, KeyBatch[string, int]{Key: "word000", Values: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	unsorted, err := encodeRun(&codec, 0,
		KeyBatch[string, int]{Key: "word002", Values: []int{1}}, KeyBatch[string, int]{Key: "word001", Values: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	key := codec.AppendKey(nil, "word000")
	overCount := append(AppendUvarint(nil, uint64(len(key)+2)), key...)
	overCount = append(overCount, 9, 1) // nine values claimed, one byte left
	inputs := spillInputs(120)
	job := spillWordCountJob()
	for name, bad := range map[string][]byte{
		"torn record":       valid[:len(valid)-1],
		"count over bytes":  overCount,
		"keys out of order": unsorted,
	} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			group := newMemFabric(3)
			group[0] = &injectingFabric{ByteExchange: group[0], bad: [][]byte{valid, bad}}
			dirs := make([]string, len(group))
			for p := range dirs {
				dirs[p] = t.TempDir()
			}
			_, _, errs := runGroup(job, group, splitInputs(inputs, 3), func(p int) Config {
				return Config{Workers: 2,
					Shuffle: ShuffleConfig{SpillThreshold: 64, SendBufferBytes: 128, SpillTmpDir: dirs[p]}}
			})
			if errs[0] == nil || !strings.Contains(errs[0].Error(), "received run") {
				t.Errorf("peer 0 returned %v, want an error naming the received run", errs[0])
			}
			for p := 1; p < len(group); p++ {
				if errs[p] != nil {
					t.Errorf("peer %d failed: %v", p, errs[p])
				}
			}
			if left, err := os.ReadDir(dirs[0]); err != nil || len(left) != 0 {
				t.Errorf("peer 0 left %d entries in its spill directory (%v)", len(left), err)
			}
			waitForGoroutines(t, before)
		})
	}
}

// EncodeBatch appends one batch as key, value count, values: the bytes of a
// run record (run.go) after its length prefix.
func (c FrameCodec[K, V]) EncodeBatch(buf []byte, b KeyBatch[K, V]) []byte {
	buf = c.AppendKey(buf, b.Key)
	buf = AppendUvarint(buf, uint64(len(b.Values)))
	for _, v := range b.Values {
		buf = c.AppendValue(buf, v)
	}
	return buf
}

// DecodeBatch decodes one batch produced by EncodeBatch. Trailing bytes are
// an error. The engine itself never decodes a whole record — received runs
// stay encoded until the reduce callback — so this is the reference decoder
// the codec tests check encodings against.
func (c FrameCodec[K, V]) DecodeBatch(frame []byte) (KeyBatch[K, V], error) {
	var b KeyBatch[K, V]
	k, pos, err := c.ReadKey(frame, 0)
	if err != nil {
		return b, err
	}
	b.Key = k
	count, pos, err := ReadUvarint(frame, pos)
	if err != nil {
		return b, err
	}
	// Every value occupies at least one byte, so a count larger than the
	// remaining payload is corrupt (and would otherwise allocate unboundedly).
	if count > uint64(len(frame)-pos) {
		return b, fmt.Errorf("mapreduce: batch claims %d values in %d bytes", count, len(frame)-pos)
	}
	b.Values = make([]V, 0, count)
	for i := uint64(0); i < count; i++ {
		v, np, err := c.ReadValue(frame, pos)
		if err != nil {
			return b, fmt.Errorf("mapreduce: decoding a value of key %v: %w", k, err)
		}
		pos = np
		b.Values = append(b.Values, v)
	}
	if pos != len(frame) {
		return b, fmt.Errorf("mapreduce: %d trailing bytes after batch", len(frame)-pos)
	}
	return b, nil
}

func TestFrameCodecBatchRoundTrip(t *testing.T) {
	c := testCodec()
	b := KeyBatch[string, int]{Key: "fox", Values: []int{1, 200, 3}}
	frame := c.EncodeBatch(nil, b)
	got, err := c.DecodeBatch(frame)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("round trip: got %+v want %+v", got, b)
	}
	if size := c.RecordSize("fox", 200); size != len(c.EncodeBatch(nil, KeyBatch[string, int]{Key: "fox", Values: []int{200}})) {
		t.Errorf("RecordSize mismatch: %d", size)
	}
	// Corrupt frames must error, not panic or over-allocate.
	for _, bad := range [][]byte{
		{},
		{0x03, 'f', 'o'}, // truncated key
		append(c.AppendKey(nil, "k"), 0xff, 0xff, 0xff, 0xff, 0x0f), // huge count
		append(frame, 0x00), // trailing byte
	} {
		if _, err := c.DecodeBatch(bad); err == nil {
			t.Errorf("DecodeBatch(%v) should fail", bad)
		}
	}
}
