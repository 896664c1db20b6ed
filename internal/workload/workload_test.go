package workload

import (
	"runtime"
	"slices"
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
			if r.Size < cfg.MinSize || r.Size > cfg.MaxSize {
				t.Fatalf("size %d out of [%d,%d]", r.Size, cfg.MinSize, cfg.MaxSize)
			}
			if r.Size != tr.Files[r.File] {
				t.Fatal("request size inconsistent with file table")
			}
			sum += r.Size
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
				if r.File < 0 || r.File >= cfg.NumFiles {
					return false
				}
				sum += r.Size
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
