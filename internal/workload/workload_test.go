package workload

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"whodunit/internal/vclock"
)

func TestGenWebDeterministic(t *testing.T) {
	a := GenWeb(DefaultWebConfig())
	b := GenWeb(DefaultWebConfig())
	if a.TotalBytes != b.TotalBytes || len(a.Conns) != len(b.Conns) {
		t.Fatal("same-seed traces differ")
	}
	cfg := DefaultWebConfig()
	cfg.Seed = 99
	c := GenWeb(cfg)
	if c.TotalBytes == a.TotalBytes {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenWebShape(t *testing.T) {
	cfg := DefaultWebConfig()
	tr := GenWeb(cfg)
	if len(tr.Conns) != cfg.NumConns {
		t.Fatalf("conns = %d", len(tr.Conns))
	}
	totalReqs, sum := 0, int64(0)
	counts := make([]int, cfg.NumFiles)
	for _, c := range tr.Conns {
		if len(c.Reqs) == 0 {
			t.Fatal("connection with no requests")
		}
		totalReqs += len(c.Reqs)
		for _, r := range c.Reqs {
			size := tr.Size(r)
			if size < cfg.MinSize || size > cfg.MaxSize {
				t.Fatalf("size %d out of [%d,%d]", size, cfg.MinSize, cfg.MaxSize)
			}
			sum += size
			counts[r.File]++
		}
	}
	if sum != tr.TotalBytes {
		t.Fatalf("TotalBytes %d != sum %d", tr.TotalBytes, sum)
	}
	// Mean requests per connection should be in the ballpark of MeanReqs.
	mean := float64(totalReqs) / float64(len(tr.Conns))
	if mean < 2 || mean > 8 {
		t.Fatalf("mean reqs/conn = %.1f, config asked ~%d", mean, cfg.MeanReqs)
	}
	// Zipf popularity: the most popular file should be requested far more
	// often than the median.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < totalReqs/100 {
		t.Fatalf("popularity not skewed: max count %d of %d", max, totalReqs)
	}
}

// TestRequestIs4Bytes pins the stored layout: a request is its 32-bit
// file id and nothing else, and a connection is its requests (its id is
// its index in the trace).
func TestRequestIs4Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n != 4 {
		t.Fatalf("Request is %d bytes, want 4", n)
	}
	for _, c := range []struct {
		typ   reflect.Type
		field string
	}{{reflect.TypeFor[Request](), "File"}, {reflect.TypeFor[Connection](), "Reqs"}} {
		if c.typ.NumField() != 1 || c.typ.Field(0).Name != c.field {
			t.Fatalf("%v has %d fields, want only %s", c.typ, c.typ.NumField(), c.field)
		}
	}
}

// TestGenWebConfigValidation: the file id is an int32 issued densely
// below NumFiles, so a configuration whose ids would not fit, or that
// cannot be generated at all, panics with a message naming the field
// before any draw. The cases go through validate itself, so that a
// GenWeb that stopped validating would not size a file table past
// int32 here; one GenWeb call then checks that GenWeb validates.
func TestGenWebConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*WebConfig)
		want string
	}{
		{"no files", func(c *WebConfig) { c.NumFiles = 0 }, "NumFiles"},
		{"negative files", func(c *WebConfig) { c.NumFiles = -1 }, "NumFiles"},
		{"files past int32", func(c *WebConfig) { c.NumFiles = int(int64(math.MaxInt32) + 1) }, "NumFiles"},
		{"negative conns", func(c *WebConfig) { c.NumConns = -1 }, "NumConns"},
		{"zero mean requests", func(c *WebConfig) { c.MeanReqs = 0 }, "MeanReqs"},
		{"zero min size", func(c *WebConfig) { c.MinSize = 0 }, "MinSize"},
		{"min above max", func(c *WebConfig) { c.MinSize, c.MaxSize = 4096, 1024 }, "MinSize"},
	} {
		cfg := DefaultWebConfig()
		c.set(&cfg)
		if msg := panicMessage(cfg.validate); !strings.Contains(msg, c.want) {
			t.Errorf("%s: panic %q, want a message naming %s", c.name, msg, c.want)
		}
	}
	cfg := DefaultWebConfig()
	cfg.NumFiles = 0
	if msg := panicMessage(func() { GenWeb(cfg) }); !strings.Contains(msg, "WebConfig.NumFiles") {
		t.Errorf("GenWeb with no files: panic %q, want the validation message", msg)
	}
	// The edges that are allowed: one file, no connections, one request
	// per connection on average, a single size.
	cfg = DefaultWebConfig()
	cfg.NumFiles, cfg.NumConns, cfg.MeanReqs, cfg.MinSize, cfg.MaxSize = 1, 0, 1, 512, 512
	if tr := GenWeb(cfg); len(tr.Conns) != 0 || tr.TotalBytes != 0 {
		t.Fatalf("empty trace: %d connections, %d bytes", len(tr.Conns), tr.TotalBytes)
	}
	cfg.NumConns = 10
	for _, c := range GenWeb(cfg).Conns {
		for _, r := range c.Reqs {
			if r.File != 0 {
				t.Fatalf("one-file trace asked for file %d", r.File)
			}
		}
	}
}

// panicMessage runs f and returns the string it panicked with, or ""
// if it returned.
func panicMessage(f func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	f()
	return ""
}

// TestGenWebReqsAreCappedWindows: every connection's requests are a
// window of one array, capped at its length, so appending to one
// connection's requests cannot write into the next one's.
func TestGenWebReqsAreCappedWindows(t *testing.T) {
	tr := GenWeb(DefaultWebConfig())
	for i, c := range tr.Conns {
		if cap(c.Reqs) != len(c.Reqs) {
			t.Fatalf("connection %d: %d requests with capacity %d", i, len(c.Reqs), cap(c.Reqs))
		}
		if i > 0 {
			prev := tr.Conns[i-1].Reqs
			if unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)*int(unsafe.Sizeof(Request{}))) != unsafe.Pointer(&c.Reqs[0]) {
				t.Fatalf("connection %d's requests do not follow connection %d's in one array", i, i-1)
			}
		}
	}
	before := slices.Clone(tr.Conns[1].Reqs)
	_ = append(tr.Conns[0].Reqs, Request{File: -1})
	if !slices.Equal(tr.Conns[1].Reqs, before) {
		t.Fatal("an append to connection 0's requests overwrote connection 1's")
	}
}

func TestBrowsingMixSumsTo100(t *testing.T) {
	sum := 0.0
	for _, name := range Interactions {
		sum += BrowsingMix[name]
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("browsing mix sums to %.2f", sum)
	}
}

func TestMixSamplerFrequencies(t *testing.T) {
	s := NewMixSampler(5, BrowsingMix)
	counts := map[string]int{}
	n := 100000
	for i := 0; i < n; i++ {
		counts[s.Next()]++
	}
	for _, name := range Interactions {
		want := BrowsingMix[name] / 100
		got := float64(counts[name]) / float64(n)
		if want > 0.01 && (got < want*0.8 || got > want*1.2) {
			t.Fatalf("%s frequency %.4f, want ~%.4f", name, got, want)
		}
	}
	// Rare interactions still occur.
	if counts[AdminConfirm] == 0 {
		t.Fatal("AdminConfirm never sampled in 100k draws")
	}
}

func TestThinkTimeDistribution(t *testing.T) {
	s := NewMixSampler(6, BrowsingMix)
	var sum vclock.Duration
	n := 20000
	for i := 0; i < n; i++ {
		d := s.ThinkTime()
		if d < 0 || d > 70*vclock.Second {
			t.Fatalf("think time %v out of range", d)
		}
		sum += d
	}
	mean := sum / vclock.Duration(n)
	if mean < 6*vclock.Second || mean > 8*vclock.Second {
		t.Fatalf("mean think = %v, want ~7s", mean)
	}
}

func TestQuickTraceInvariants(t *testing.T) {
	f := func(seed uint64, conns uint8) bool {
		cfg := DefaultWebConfig()
		cfg.Seed = seed
		cfg.NumConns = int(conns%50) + 1
		tr := GenWeb(cfg)
		var sum int64
		for _, c := range tr.Conns {
			for _, r := range c.Reqs {
				if r.File < 0 || int(r.File) >= cfg.NumFiles {
					return false
				}
				sum += tr.Size(r)
			}
		}
		return sum == tr.TotalBytes && len(tr.Conns) == cfg.NumConns
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAllMixesWellFormed(t *testing.T) {
	for name, mix := range map[string]map[string]float64{
		"browsing": BrowsingMix, "shopping": ShoppingMix, "ordering": OrderingMix,
	} {
		sum := 0.0
		for inter, w := range mix {
			if w < 0 {
				t.Fatalf("%s: negative weight for %s", name, inter)
			}
			found := false
			for _, known := range Interactions {
				if known == inter {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: unknown interaction %s", name, inter)
			}
			sum += w
		}
		if sum < 99 || sum > 101 {
			t.Fatalf("%s mix sums to %.2f", name, sum)
		}
	}
}

func TestOrderingMixShiftsLoad(t *testing.T) {
	// The ordering mix must sample far more BuyConfirm and far fewer
	// BestSellers than the browsing mix.
	n := 50000
	count := func(mix map[string]float64, inter string) int {
		s := NewMixSampler(3, mix)
		c := 0
		for i := 0; i < n; i++ {
			if s.Next() == inter {
				c++
			}
		}
		return c
	}
	if count(OrderingMix, BuyConfirm) < 5*count(BrowsingMix, BuyConfirm) {
		t.Fatal("ordering mix should buy much more")
	}
	if count(OrderingMix, BestSellers) > count(BrowsingMix, BestSellers)/5 {
		t.Fatal("ordering mix should browse much less")
	}
}

// TestGenWebShardBoundaries pins the sharded generator at the exact
// worker-shard edges: trace sizes straddling the 256-item shard
// (genShard-1, genShard, genShard+1, 2*genShard) must come out
// bit-identical whether the par pool runs one worker or many — the
// regime where an off-by-one in a shard's [lo, hi) bounds or its
// RNG.Skip offset would duplicate or drop the boundary item.
func TestGenWebShardBoundaries(t *testing.T) {
	for _, n := range []int{genShard - 1, genShard, genShard + 1, 2 * genShard} {
		cfg := DefaultWebConfig()
		cfg.NumConns = n
		cfg.NumFiles = n

		prev := runtime.GOMAXPROCS(1)
		serial := GenWeb(cfg)
		runtime.GOMAXPROCS(prev)
		parallel := GenWeb(cfg)

		if len(serial.Conns) != n || len(parallel.Conns) != n {
			t.Fatalf("n=%d: conns = %d serial / %d parallel", n, len(serial.Conns), len(parallel.Conns))
		}
		if serial.TotalBytes != parallel.TotalBytes {
			t.Fatalf("n=%d: total bytes differ: %d vs %d", n, serial.TotalBytes, parallel.TotalBytes)
		}
		for i := range serial.Files {
			if serial.Files[i] != parallel.Files[i] {
				t.Fatalf("n=%d: file %d size differs across worker counts", n, i)
			}
		}
		for c := range serial.Conns {
			a, b := serial.Conns[c], parallel.Conns[c]
			if len(a.Reqs) != len(b.Reqs) {
				t.Fatalf("n=%d: conn %d request count differs: %d vs %d", n, c, len(a.Reqs), len(b.Reqs))
			}
			for r := range a.Reqs {
				if a.Reqs[r] != b.Reqs[r] {
					t.Fatalf("n=%d: conn %d req %d differs: %+v vs %+v", n, c, r, a.Reqs[r], b.Reqs[r])
				}
			}
		}
	}
}
