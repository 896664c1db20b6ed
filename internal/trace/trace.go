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
//
// In memory a Trace is 24-byte Records plus two name tables: a record's
// op and key are indices into the trace's Ops and Keys, each table filled
// in order of first appearance, so one event sequence has exactly one
// representation. Indices from two traces are never compared; names are.
// Event, the wide form, is the line format and what replay injects.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"whodunit"
	"whodunit/internal/vclock"
)

// Format is the header format tag of trace files this package writes.
const Format = "whodunit-trace/v1"

// The widths of a Record's identifiers. A stream id is below maxStreams,
// a trace names at most maxOps ops and maxKeys keys (one short of 2^32:
// Gen's key-id map keeps 0 for a key not drawn yet). Read salvages a line
// past any of them as corrupt; GenConfig validation refuses a config that
// could draw one.
const (
	maxStreams = 1 << 16
	maxOps     = 1 << 8
	maxKeys    = math.MaxUint32
)

// Event is one request in its wide form: the JSONL line format, and what
// Replay and OpenLoop hand to inject. A Trace stores Records;
// Trace.Event expands one.
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
	return ev.Op != "" && ev.T >= prev && ev.T >= 0 && ev.Stream >= 0 && ev.Stream < maxStreams && ev.Size >= 0
}

// Record is one stored event, 24 bytes: Op and Key index the owning
// Trace's Ops and Keys.
type Record struct {
	T      whodunit.Duration // arrival, virtual ns from trace start
	Size   int64             // request payload bytes
	Key    uint32
	Stream uint16
	Op     uint8
}

// Trace is a loaded or generated request trace: its records and the name
// tables they index, each table in order of first appearance, so one
// event sequence has one Trace value. Lost counts trailing records a
// salvaging Read could not recover (0 for generated traces).
type Trace struct {
	Events []Record
	Keys   []string
	Ops    []string
	Lost   int
}

// Event expands record i. It allocates nothing: the names are the
// tables' own strings.
func (tr *Trace) Event(i int) Event {
	r := &tr.Events[i]
	return Event{T: r.T, Stream: int(r.Stream), Op: tr.Ops[r.Op], Key: tr.Keys[r.Key], Size: r.Size}
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
	var ev Event
	for i := range tr.Events {
		ev = tr.Event(i)
		if err := enc.Encode(&ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// names is a name table Read fills in order of first appearance; index
// maps each name to its position in list.
type names struct {
	index map[string]uint32
	list  []string
}

// lookup returns name's index, or the index a new name would take; ok is
// false when a new name would not fit under limit.
func (n *names) lookup(name string, limit int) (i uint32, ok bool) {
	if i, ok := n.index[name]; ok {
		return i, true
	}
	return uint32(len(n.list)), len(n.list) < limit
}

// keep adds name at i if lookup found it new.
func (n *names) keep(name string, i uint32) {
	if int(i) == len(n.list) {
		n.index[name] = i
		n.list = append(n.list, name)
	}
}

// readHint caps the records Read sizes its slice for from the header's
// count, which the file, not the reader, states.
const readHint = 1 << 16

// Read decodes a JSONL trace from r, salvaging what it can: a missing
// or malformed header is an error (there is nothing to salvage), but
// once the header is in, events are kept up to the first corrupt or
// out-of-order line and everything after it — plus any events the
// header promised that never arrived — is counted in Trace.Lost. A line
// whose stream, op or key does not fit a Record (a stream of 2^16 or
// more, a 257th distinct op, a 2^32-th distinct key) is corrupt too.
// Read never panics on malformed input (see FuzzReadTrace).
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
	tr := &Trace{Events: make([]Record, 0, min(max(hdr.Events, 0), readHint))}
	ops := names{index: map[string]uint32{}}
	keys := names{index: map[string]uint32{}}
	prev := whodunit.Duration(0)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		err := json.Unmarshal(line, &ev)
		op, opOK := ops.lookup(ev.Op, maxOps)
		key, keyOK := keys.lookup(ev.Key, maxKeys)
		if err != nil || !ev.valid(prev) || !opOK || !keyOK {
			// Corrupt record: keep the salvaged prefix, count the rest.
			tr.Lost++
			for sc.Scan() {
				tr.Lost++
			}
			break
		}
		ops.keep(ev.Op, op)
		keys.keep(ev.Key, key)
		tr.Events = append(tr.Events, Record{T: ev.T, Size: ev.Size, Key: key, Stream: uint16(ev.Stream), Op: uint8(op)})
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
	tr.Ops, tr.Keys = ops.list, keys.list
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
	if cfg.Keys < 1 || uint64(max(cfg.Keys, cfg.HotKeys)) > maxKeys {
		panic(fmt.Sprintf("trace: GenConfig.Keys and HotKeys must be in [1, %d] (got %d, %d)", uint64(maxKeys), cfg.Keys, cfg.HotKeys))
	}
	if cfg.Streams < 1 || cfg.Streams > maxStreams {
		panic(fmt.Sprintf("trace: GenConfig.Streams must be in [1, %d] (got %d)", maxStreams, cfg.Streams))
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

// The generator's ops, by the code a draw carries.
const (
	opGet = iota
	opSet
)

var opNames = [...]string{opGet: "get", opSet: "set"}

// draw is one generated event before it is named: its key as an id of
// the generator's key space, its op as a code of opNames.
type draw struct {
	t      whodunit.Duration
	size   int64
	key    int
	stream int
	op     int
}

// next draws the following event. Draw order is fixed (gap, hot, key,
// op, size, stream) — it is part of the bit-reproducibility contract.
func (g *gen) next() draw {
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

	op, size := opSet, int64(0)
	if g.rng.Float64() < g.cfg.ReadFrac {
		op, size = opGet, g.cfg.GetSize
	} else {
		size = int64(g.rng.Pareto(float64(g.cfg.MinSize), float64(g.cfg.MaxSize), g.cfg.SizeAlpha))
	}
	return draw{t: g.t, size: size, key: id, stream: g.rng.Intn(g.cfg.Streams), op: op}
}

// event draws the following event in its wide form.
func (g *gen) event() Event {
	d := g.next()
	return Event{T: d.t, Stream: d.stream, Op: opNames[d.op], Key: g.key(d.key), Size: d.size}
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
// would inject, stored as records. A drawn key id and op code reach their
// table indices through slices indexed by id and code, so no name is
// hashed or formatted per event.
func Gen(cfg GenConfig) *Trace {
	g := newGen(cfg)
	tr := &Trace{Events: make([]Record, cfg.Events)}
	// 1 + the table index of each key id and op code; 0 until it is drawn.
	keyIndex := make([]uint32, len(g.keys))
	var opIndex [len(opNames)]uint8
	for i := range tr.Events {
		d := g.next()
		k := keyIndex[d.key]
		if k == 0 {
			tr.Keys = append(tr.Keys, g.key(d.key))
			k = uint32(len(tr.Keys))
			keyIndex[d.key] = k
		}
		o := opIndex[d.op]
		if o == 0 {
			tr.Ops = append(tr.Ops, opNames[d.op])
			o = uint8(len(tr.Ops))
			opIndex[d.op] = o
		}
		tr.Events[i] = Record{T: d.t, Size: d.size, Key: k - 1, Stream: uint16(d.stream), Op: o - 1}
	}
	return tr
}
