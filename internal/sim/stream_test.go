package sim

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/workloads"
)

// streamLimit is a per-stream byte cap far above any test stream.
const streamLimit = 64 << 20

// record records k on cfg, failing the test unless the recording's Result
// is Run's and a stream came back.
func record(t *testing.T, cfg Config, k *workloads.Kernel) *Stream {
	t.Helper()
	res, st := Record(cfg, k, nil, streamLimit)
	if want := Run(cfg, k); !reflect.DeepEqual(res, want) {
		t.Fatalf("%s on %s: recording result differs from Run\n got  %+v\n want %+v", k.Name, cfg.Name(), res, want)
	}
	if st == nil {
		t.Fatalf("%s on %s: no stream recorded", k.Name, cfg.Name())
	}
	return st
}

// TestConfigHWVL: Config.HWVL names the hardware vector length the
// assembled system's builder runs at, on every system.
func TestConfigHWVL(t *testing.T) {
	for _, cfg := range AllSystems() {
		if got, want := cfg.HWVL(), NewSystem(cfg, 1<<20).Builder().HWVL(); got != want {
			t.Errorf("%s: Config.HWVL %d, builder %d", cfg.Name(), got, want)
		}
	}
}

// TestReplayRepeatable: one stream replayed twice in a row and by several
// goroutines at once gives Run's result every time, and the replays leave
// its bytes untouched. Under -race this audits Replay for writes to the
// shared log.
func TestReplayRepeatable(t *testing.T) {
	cfg := Config{Kind: SysO3EVE, N: 8}
	for _, k := range []*workloads.Kernel{workloads.NewSpMV(128, 128, 8), workloads.NewKMeans(128, 8, 3)} {
		st := record(t, cfg, k)
		orig := bytes.Clone(st.Bytes())
		want := Run(cfg, k)
		for i := 0; i < 2; i++ {
			if got := Replay(cfg, st); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: replay %d differs from Run\n got  %+v\n want %+v", k.Name, i, got, want)
			}
		}
		const replicas = 4
		got := make([]Result, replicas)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = Replay(cfg, st)
			}(i)
		}
		wg.Wait()
		for i, r := range got {
			if !reflect.DeepEqual(r, want) {
				t.Errorf("%s: concurrent replay %d differs from Run", k.Name, i)
			}
		}
		if !bytes.Equal(st.Bytes(), orig) {
			t.Errorf("%s: replays changed the stream's bytes", k.Name)
		}
	}
}

// TestReplayValidationError: a kernel whose output check fails records its
// verdict, and every replay returns the same error.
func TestReplayValidationError(t *testing.T) {
	bad := errors.New("vvadd: output mismatch at element 3")
	k := *workloads.NewVVAdd(512)
	run := k.Run
	k.Run = func(b *isa.Builder, vector bool) workloads.CheckFunc {
		check := run(b, vector)
		return func() error {
			if err := check(); err != nil {
				return err
			}
			return bad
		}
	}
	cfg := Config{Kind: SysO3EVE, N: 4}
	st := record(t, cfg, &k)
	got := Replay(cfg, st)
	if !errors.Is(got.Err, bad) || !reflect.DeepEqual(got, Run(cfg, &k)) {
		t.Errorf("replayed Err %v, want %v and Run's result", got.Err, bad)
	}
}

// TestReplayWatchdog: the micro-program watchdog lives in the timing model,
// so a stream recorded under the default budget and replayed under a
// tripping one aborts with Run's SimError at Run's cycle; a recording that
// trips the watchdog itself yields no stream.
func TestReplayWatchdog(t *testing.T) {
	k := workloads.NewVVAdd(1024)
	st := record(t, Config{Kind: SysO3EVE, N: 4}, k)
	tight := Config{Kind: SysO3EVE, N: 4, MaxUProgCycles: 1}
	want := Run(tight, k)
	var se *SimError
	if !errors.As(want.Err, &se) {
		t.Fatalf("a 1-cycle budget did not trip the watchdog: %v", want.Err)
	}
	if got := Replay(tight, st); !reflect.DeepEqual(got, want) {
		t.Errorf("replay under a tripping budget\n got  %+v\n want %+v", got, want)
	}
	res, st := Record(tight, k, nil, streamLimit)
	if st != nil || !reflect.DeepEqual(res, want) {
		t.Errorf("a tripped recording returned stream %v and %+v, want none and Run's result", st != nil, res)
	}
}

// TestRecordOverLimit: a stream past the byte cap is abandoned, and the
// recording run's Result is still Run's.
func TestRecordOverLimit(t *testing.T) {
	cfg := Config{Kind: SysO3EVE, N: 8}
	k := workloads.NewVVAdd(1024)
	full := record(t, cfg, k)
	res, st := Record(cfg, k, nil, len(full.Bytes())-1)
	if st != nil {
		t.Errorf("a stream of %d bytes was kept under a cap of %d", len(st.Bytes()), len(full.Bytes())-1)
	}
	if !reflect.DeepEqual(res, Run(cfg, k)) {
		t.Error("an abandoned recording changed the run's result")
	}
	if _, st := Record(cfg, k, nil, len(full.Bytes())); st == nil {
		t.Error("a stream exactly at the cap was abandoned")
	}
}

// TestReplayRejectsOtherHWVL: a stream is bound to its hardware vector
// length and engine kind.
func TestReplayRejectsOtherHWVL(t *testing.T) {
	st := record(t, Config{Kind: SysO3EVE, N: 8}, workloads.NewVVAdd(256))
	for _, cfg := range []Config{{Kind: SysO3EVE, N: 1}, {Kind: SysO3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("replay on %s did not panic", cfg.Name())
				}
			}()
			Replay(cfg, st)
		}()
	}
}

// TestCodecAllocatesNothing: encoding into a log whose storage already
// holds the stream, and decoding with a decoder whose address buffer has
// grown, allocate nothing per event. That is what makes a recording into a
// recycled buffer, and every replay after the first event, allocation-free.
func TestCodecAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	events := make([]isa.Event, 256)
	var log []byte
	var prev uint64
	for i := range events {
		events[i] = randomEvent(r)
		log = appendEvent(log, events[i], &prev)
	}
	warm := log
	enc := testing.AllocsPerRun(10, func() {
		log, prev = warm[:0], 0
		for _, ev := range events {
			log = appendEvent(log, ev, &prev)
		}
	})
	d := decoder{log: warm}
	dec := testing.AllocsPerRun(10, func() {
		d.off, d.prev = 0, 0
		for d.off < len(d.log) {
			d.next()
		}
	})
	if enc != 0 || dec != 0 {
		t.Errorf("%d events: encoding makes %.1f allocations, decoding %.1f; want 0", len(events), enc, dec)
	}
}

// randomEvent draws one event of each shape a Builder emits, with field
// values across their whole ranges: negative strides and ints, VL 0,
// addresses near 2⁶⁴, nil and empty address lists.
func randomEvent(r *rand.Rand) isa.Event {
	pick := func(vals ...uint64) uint64 {
		if r.Intn(3) == 0 {
			return vals[r.Intn(len(vals))]
		}
		return r.Uint64()
	}
	edges := []uint64{0, 1, 64, math.MaxUint64, math.MaxUint64 - 63, 1 << 63}
	switch kind := isa.EventKind(r.Intn(5)); kind {
	case isa.EvScalar, isa.EvScalarMul:
		return isa.Event{Kind: kind, N: int(pick(1, 7, 1<<40))}
	case isa.EvLoad, isa.EvStore:
		return isa.Event{Kind: kind, N: int(pick(1, 1, 1, 0, 2)), Addr: pick(edges...)}
	}
	in := &isa.Instr{
		Op:     isa.Op(r.Intn(int(isa.OpFence) + 3)),
		Kind:   isa.OperandKind(r.Intn(4)),
		Vd:     r.Intn(32),
		Vs1:    r.Intn(32),
		Vs2:    int(pick(0, 31, 1<<63)),
		Scalar: uint32(pick(0, math.MaxUint32)),
		Masked: r.Intn(2) == 0,
		VL:     int(pick(0, 1, 2048)),
		Addr:   pick(edges...),
		Stride: int64(pick(0, 4, math.MaxUint64-3, 1<<63)),
	}
	switch r.Intn(3) {
	case 0: // nil: not an indexed access
	case 1:
		in.Addrs = []uint64{}
	default:
		in.Addrs = make([]uint64, r.Intn(9))
		for i := range in.Addrs {
			in.Addrs[i] = pick(edges...)
		}
	}
	return isa.Event{Kind: isa.EvVector, V: in}
}

// FuzzStreamCodec: any sequence of builder-shaped events round-trips
// through the log exactly — every field a kind carries, nil and empty
// address lists kept apart — and decodes to the end of the log.
func FuzzStreamCodec(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed, uint8(16))
	}
	f.Add(int64(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		r := rand.New(rand.NewSource(seed))
		events := make([]isa.Event, n)
		var log []byte
		var prev uint64
		for i := range events {
			events[i] = randomEvent(r)
			log = appendEvent(log, events[i], &prev)
		}
		d := decoder{log: log}
		for i, want := range events {
			if d.off >= len(log) {
				t.Fatalf("log ended after %d of %d events", i, len(events))
			}
			got := d.next()
			if got.Kind != want.Kind || (got.V == nil) != (want.V == nil) {
				t.Fatalf("event %d: kind %d (vector %t), want %d (vector %t)", i, got.Kind, got.V != nil, want.Kind, want.V != nil)
			}
			if want.V == nil {
				if got != want {
					t.Fatalf("event %d: %+v, want %+v", i, got, want)
				}
				continue
			}
			if got.N != 0 || got.Addr != 0 {
				t.Fatalf("event %d: vector event carries N %d, Addr %#x", i, got.N, got.Addr)
			}
			if !reflect.DeepEqual(*got.V, *want.V) {
				t.Fatalf("event %d:\n got  %+v\n want %+v", i, *got.V, *want.V)
			}
		}
		if d.off != len(log) {
			t.Fatalf("%d bytes left after the last event", len(log)-d.off)
		}
	})
}
