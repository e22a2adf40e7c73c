package mapreduce

import (
	"errors"
	"fmt"
	"io"
	"reflect"
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
	want, _ := runAlone(t, wordCountInputs, Config{MapWorkers: 2, ReduceWorkers: 2}, job)
	sort.Strings(want)

	got, _, errs := runGroup(job, newMemFabric(3), splitInputs(wordCountInputs, 3), func(int) Config {
		return Config{MapWorkers: 2, ReduceWorkers: 2}
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
	got, _ := runAlone(t, wordCountInputs, Config{MapWorkers: 2, ReduceWorkers: 2}, job)
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
	want, _ := runAlone(t, wordCountInputs, Config{MapWorkers: 2, ReduceWorkers: 2}, job)
	sort.Strings(want)

	group := newMemFabric(3)
	got, metrics, errs := runGroup(job, group, splitInputs(wordCountInputs, len(group)), func(int) Config {
		return Config{MapWorkers: 2, ReduceWorkers: 2}
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
// every map worker sends each of its keys owned by another peer as exactly one
// frame, EncodeBatch of the key and its combined values — with and without a
// combiner, so a batch carries one value or many.
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
			return Config{MapWorkers: workers, ReduceWorkers: 2}
		})
		for p, split := range splits {
			if errs[p] != nil {
				t.Fatalf("peer %d: %v", p, errs[p])
			}
			want := map[int][]string{}
			for w := 0; w < workers; w++ {
				groups := map[string][]int{}
				for i := w; i < len(split); i += workers {
					job.Map(split[i], func(k string, v int) { groups[k] = append(groups[k], v) })
				}
				for k, vs := range groups {
					if dst := int(job.Hash(k) % peers); dst != p {
						if job.Combine != nil {
							vs = job.Combine(k, vs)
						}
						frame := job.Codec.EncodeBatch(nil, KeyBatch[string, int]{Key: k, Values: vs})
						want[dst] = append(want[dst], string(frame))
					}
				}
			}
			for dst := range want {
				sort.Strings(want[dst])
				sort.Strings(recorders[p].sent[dst])
			}
			if !reflect.DeepEqual(recorders[p].sent, want) {
				t.Errorf("combiner %v: peer %d sent frames that are not the encoded batches", job.Combine != nil, p)
			}
		}
	}
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
