// Package trace is the deterministic trace-replay workload engine: a
// JSONL request-trace format (one event per line — virtual timestamp,
// stream, op, key, size), a seeded synthetic generator producing
// cache-trace and meta-kv-trace shapes (Zipfian key skew, read/write
// mix, burst arrivals), a loader that salvages truncated traces the way
// stitch.ReadDumpStream salvages dump streams, and replay drivers that
// feed open-loop injection bit-reproducibly at a fixed seed.
//
// A trace file is a header line followed by one event per line:
//
//	{"format":"whodunit-trace/v1","events":3}
//	{"t":151,"stream":2,"op":"get","key":"k0007","size":96}
//	{"t":1423,"stream":0,"op":"set","key":"k0021","size":2048}
//	{"t":1423,"stream":5,"op":"get","key":"k0007","size":96}
//
// Timestamps are virtual nanoseconds from the start of the trace and
// must be non-decreasing; the header's event count lets the loader
// report how much of a truncated trace was lost.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"whodunit"
	"whodunit/internal/vclock"
)

// Format is the header format tag of trace files this package writes.
const Format = "whodunit-trace/v1"

// Event is one request record.
type Event struct {
	T      whodunit.Duration `json:"t"` // arrival, virtual ns from trace start
	Stream int               `json:"stream"`
	Op     string            `json:"op"`
	Key    string            `json:"key"`
	Size   int64             `json:"size"` // request payload bytes
}

// valid reports whether ev is a well-formed successor of an event at
// prev: fields in range and time non-decreasing.
func (ev Event) valid(prev whodunit.Duration) bool {
	return ev.Op != "" && ev.T >= prev && ev.T >= 0 && ev.Stream >= 0 && ev.Size >= 0
}

// Trace is a loaded or generated request trace. Lost counts trailing
// records a salvaging Read could not recover (0 for generated traces).
type Trace struct {
	Events []Event
	Lost   int
}

// header is the first line of a trace file.
type header struct {
	Format string `json:"format"`
	Events int    `json:"events"`
}

// Write encodes tr onto w in the JSONL trace format.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Format: Format, Events: len(tr.Events)}); err != nil {
		return err
	}
	for i := range tr.Events {
		if err := enc.Encode(&tr.Events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a JSONL trace from r, salvaging what it can: a missing
// or malformed header is an error (there is nothing to salvage), but
// once the header is in, events are kept up to the first corrupt or
// out-of-order line and everything after it — plus any events the
// header promised that never arrived — is counted in Trace.Lost. Read
// never panics on malformed input (see FuzzReadTrace).
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: read header: %w", err)
		}
		return nil, errors.New("trace: empty input (missing header)")
	}
	var hdr header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if hdr.Format != Format {
		return nil, fmt.Errorf("trace: unsupported format %q (want %q)", hdr.Format, Format)
	}
	tr := &Trace{}
	prev := whodunit.Duration(0)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil || !ev.valid(prev) {
			// Corrupt record: keep the salvaged prefix, count the rest.
			tr.Lost++
			for sc.Scan() {
				tr.Lost++
			}
			break
		}
		tr.Events = append(tr.Events, ev)
		prev = ev.T
	}
	if sc.Err() != nil {
		// A line the scanner could not finish (oversized or IO error)
		// is one more lost record.
		tr.Lost++
	}
	if hdr.Events > len(tr.Events)+tr.Lost {
		tr.Lost = hdr.Events - len(tr.Events)
	}
	return tr, nil
}

// GenConfig parameterises the synthetic generator. The zero value is
// not runnable — start from CacheTrace or MetaKV and override.
type GenConfig struct {
	Seed    uint64
	Events  int // ignored by OpenLoop
	Streams int
	Keys    int     // distinct keys
	ZipfS   float64 // Zipf skew over the key space (<=0: uniform)

	// HotKeys/HotFrac concentrate extra mass: with probability HotFrac
	// the key is drawn uniformly from the first HotKeys keys instead of
	// the Zipf tail — the hot-key scenarios' skew knob.
	HotKeys int
	HotFrac float64

	ReadFrac float64 // fraction of "get" events (the rest are "set")

	MeanGap whodunit.Duration // mean inter-arrival gap (exponential)
	// Burst arrivals: inside every [k*BurstEvery, k*BurstEvery+BurstLen)
	// window the mean gap shrinks by BurstFactor (>1). BurstEvery 0
	// disables bursts.
	BurstEvery  whodunit.Duration
	BurstLen    whodunit.Duration
	BurstFactor float64

	GetSize   int64 // request payload of a get
	MinSize   int64 // set value sizes: Pareto(MinSize, MaxSize, SizeAlpha)
	MaxSize   int64
	SizeAlpha float64
}

// CacheTrace is the read-heavy cache-trace shape: 95/5 get/set over a
// moderately skewed key space at a steady arrival rate.
func CacheTrace() GenConfig {
	return GenConfig{
		Seed:      1,
		Events:    2000,
		Streams:   8,
		Keys:      512,
		ZipfS:     0.9,
		ReadFrac:  0.95,
		MeanGap:   3 * whodunit.Millisecond,
		GetSize:   96,
		MinSize:   512,
		MaxSize:   64 << 10,
		SizeAlpha: 1.3,
	}
}

// MetaKV is the metadata-KV shape: smaller values, a more write-heavy
// mix, a sharper key skew, and bursty arrivals.
func MetaKV() GenConfig {
	return GenConfig{
		Seed:        1,
		Events:      2000,
		Streams:     4,
		Keys:        256,
		ZipfS:       1.1,
		ReadFrac:    0.7,
		MeanGap:     2 * whodunit.Millisecond,
		BurstEvery:  400 * whodunit.Millisecond,
		BurstLen:    80 * whodunit.Millisecond,
		BurstFactor: 4,
		GetSize:     64,
		MinSize:     128,
		MaxSize:     4096,
		SizeAlpha:   1.1,
	}
}

// gen is the generator state: one RNG stream, so the event sequence is
// a pure function of the config.
type gen struct {
	cfg  GenConfig
	rng  *vclock.RNG
	zipf *vclock.Zipf
	t    whodunit.Duration
	keys []string // key names by id, each formatted on first use
}

func newGen(cfg GenConfig) *gen {
	if cfg.Keys < 1 {
		panic(fmt.Sprintf("trace: GenConfig.Keys must be >= 1 (got %d)", cfg.Keys))
	}
	if cfg.Streams < 1 {
		panic(fmt.Sprintf("trace: GenConfig.Streams must be >= 1 (got %d)", cfg.Streams))
	}
	if cfg.MeanGap <= 0 {
		panic(fmt.Sprintf("trace: GenConfig.MeanGap must be positive (got %v)", cfg.MeanGap))
	}
	g := &gen{cfg: cfg, rng: vclock.NewRNG(cfg.Seed), keys: make([]string, max(cfg.Keys, cfg.HotKeys))}
	if cfg.ZipfS > 0 {
		g.zipf = vclock.NewZipfTable(cfg.Keys, cfg.ZipfS)
	}
	return g
}

// next draws the following event. Draw order is fixed (gap, hot, key,
// op, size, stream) — it is part of the bit-reproducibility contract.
func (g *gen) next() Event {
	gap := g.cfg.MeanGap
	if g.cfg.BurstEvery > 0 && g.cfg.BurstFactor > 1 && g.t%g.cfg.BurstEvery < g.cfg.BurstLen {
		gap = whodunit.Duration(float64(gap) / g.cfg.BurstFactor)
	}
	g.t += g.rng.Exp(gap)

	var id int
	if g.cfg.HotKeys > 0 && g.rng.Float64() < g.cfg.HotFrac {
		id = g.rng.Intn(g.cfg.HotKeys)
	} else if g.zipf != nil {
		id = g.zipf.Sample(g.rng)
	} else {
		id = g.rng.Intn(g.cfg.Keys)
	}

	op, size := "set", int64(0)
	if g.rng.Float64() < g.cfg.ReadFrac {
		op, size = "get", g.cfg.GetSize
	} else {
		size = int64(g.rng.Pareto(float64(g.cfg.MinSize), float64(g.cfg.MaxSize), g.cfg.SizeAlpha))
	}
	return Event{
		T:      g.t,
		Stream: g.rng.Intn(g.cfg.Streams),
		Op:     op,
		Key:    g.key(id),
		Size:   size,
	}
}

// key names key id. The key space is small and every event names one,
// so a name is formatted once per generator, not once per event.
func (g *gen) key(id int) string {
	if g.keys[id] == "" {
		g.keys[id] = fmt.Sprintf("k%04d", id)
	}
	return g.keys[id]
}

// Gen produces cfg.Events synthetic events — the same sequence OpenLoop
// would inject, materialised.
func Gen(cfg GenConfig) *Trace {
	g := newGen(cfg)
	tr := &Trace{Events: make([]Event, cfg.Events)}
	for i := range tr.Events {
		tr.Events[i] = g.next()
	}
	return tr
}
