package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"whodunit"
	"whodunit/internal/vclock"
)

// refGen is the generator as it stood when a trace was a slice of wide
// Events: each event drawn in the fixed order (gap, hot, key, op, size,
// stream) and named as it is drawn. Gen must store the same sequence.
func refGen(cfg GenConfig) []Event {
	rng := vclock.NewRNG(cfg.Seed)
	var zipf *vclock.Zipf
	if cfg.ZipfS > 0 {
		zipf = vclock.NewZipfTable(cfg.Keys, cfg.ZipfS)
	}
	var t whodunit.Duration
	evs := make([]Event, cfg.Events)
	for i := range evs {
		gap := cfg.MeanGap
		if cfg.BurstEvery > 0 && cfg.BurstFactor > 1 && t%cfg.BurstEvery < cfg.BurstLen {
			gap = whodunit.Duration(float64(gap) / cfg.BurstFactor)
		}
		t += rng.Exp(gap)

		var id int
		if cfg.HotKeys > 0 && rng.Float64() < cfg.HotFrac {
			id = rng.Intn(cfg.HotKeys)
		} else if zipf != nil {
			id = zipf.Sample(rng)
		} else {
			id = rng.Intn(cfg.Keys)
		}

		op, size := "set", int64(0)
		if rng.Float64() < cfg.ReadFrac {
			op, size = "get", cfg.GetSize
		} else {
			size = int64(rng.Pareto(float64(cfg.MinSize), float64(cfg.MaxSize), cfg.SizeAlpha))
		}
		evs[i] = Event{
			T:      t,
			Stream: rng.Intn(cfg.Streams),
			Op:     op,
			Key:    fmt.Sprintf("k%04d", id),
			Size:   size,
		}
	}
	return evs
}

// TestQuickGenMatchesRef generates random configurations — key spaces up
// to 12 500 with and without Zipf skew, hot keys beyond the key space,
// all-get and all-set mixes, bursts, 1 to 65 536 streams — and requires
// that every record of Gen expands to refGen's event, and that a trace
// written and read back is the same Trace value (the name tables are in
// first-appearance order, so an event sequence has one representation).
func TestQuickGenMatchesRef(t *testing.T) {
	configs := 60
	if testing.Short() {
		configs = 15
	}
	rng := vclock.NewRNG(49)
	for n := 0; n < configs; n++ {
		cfg := CacheTrace()
		if rng.Intn(2) == 0 {
			cfg = MetaKV()
		}
		cfg.Seed = rng.Uint64()
		cfg.Events = rng.Intn(3000)
		cfg.Keys = 1 + rng.Intn(12_500)
		cfg.ZipfS = []float64{0, 0.6, 0.9, 1.3}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			cfg.HotKeys = 1 + rng.Intn(12_500)
			cfg.HotFrac = rng.Float64()
		}
		cfg.ReadFrac = []float64{0, 0.5, 0.95, 1}[rng.Intn(4)]
		cfg.Streams = []int{1, 2, 8, 1 + rng.Intn(65_536), 65_536}[rng.Intn(5)]
		if rng.Intn(2) == 0 {
			cfg.BurstEvery = 100*whodunit.Millisecond + rng.Exp(400*whodunit.Millisecond)
			cfg.BurstLen = cfg.BurstEvery / 5
			cfg.BurstFactor = 1 + 5*rng.Float64()
		}
		t.Run(fmt.Sprint("config=", n), func(t *testing.T) {
			tr, ref := Gen(cfg), refGen(cfg)
			if len(tr.Events) != len(ref) {
				t.Fatalf("Gen stored %d events, the reference drew %d", len(tr.Events), len(ref))
			}
			for i := range ref {
				if got := tr.Event(i); got != ref[i] {
					t.Fatalf("event %d of %+v:\n Gen %+v\n ref %+v", i, cfg, got, ref[i])
				}
			}
			var buf bytes.Buffer
			if err := Write(&buf, tr); err != nil {
				t.Fatal(err)
			}
			back, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, tr) {
				t.Fatalf("Read(Write(Gen)) is another representation: %d records, %d keys, %d ops; Gen: %d, %d, %d",
					len(back.Events), len(back.Keys), len(back.Ops), len(tr.Events), len(tr.Keys), len(tr.Ops))
			}
		})
	}
}
