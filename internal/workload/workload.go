// Package workload generates the synthetic workloads driving the case
// studies: a web trace standing in for the Rice CS department trace used
// throughout §8-§9 (Zipf file popularity, heavy-tailed sizes, sessioned
// connections with a few requests each), and the TPC-W browsing mix with
// its fourteen interactions and exponential think times (§8.4).
//
// Everything is generated from explicit seeds so experiments are
// reproducible.
package workload

import (
	"fmt"
	"math"

	"whodunit/internal/par"
	"whodunit/internal/vclock"
)

// Request is one HTTP request: the id of the file it asks for, 4 bytes.
// File ids are dense, 0 to NumFiles-1, issued by GenWeb for the life of
// the trace; one id is one file. The request's size is the file's, read
// from the trace's file table (WebTrace.Size), not stored per request.
type Request struct {
	File int32
}

// Connection is one client connection carrying a few requests
// (persistent connections, then closed — the pattern that makes Apache's
// listener push new work through shared memory, §9.2). A connection's id
// is its index in WebTrace.Conns.
type Connection struct {
	Reqs []Request
}

// WebTrace is a generated web workload: its connections, in arrival
// order, and the file table their requests index.
type WebTrace struct {
	Conns      []Connection
	Files      []int64 // size in bytes per file id
	TotalBytes int64   // sum of every request's size
}

// Size returns the size in bytes of the file r asks for.
func (tr *WebTrace) Size(r Request) int64 { return tr.Files[r.File] }

// WebConfig parameterises web trace generation.
type WebConfig struct {
	Seed      uint64
	NumFiles  int     // distinct files on the server
	NumConns  int     // connections in the trace
	MeanReqs  int     // mean requests per connection (geometric, >=1)
	ZipfS     float64 // popularity skew
	MinSize   int64   // bytes
	MaxSize   int64   // bytes
	SizeAlpha float64 // bounded-Pareto shape for file sizes
}

// DefaultWebConfig mimics a departmental web server trace: 2000 files,
// skewed popularity, mostly-small files with a heavy tail.
func DefaultWebConfig() WebConfig {
	return WebConfig{
		Seed:      42,
		NumFiles:  2000,
		NumConns:  600,
		MeanReqs:  4,
		ZipfS:     0.9,
		MinSize:   512,
		MaxSize:   2 << 20,
		SizeAlpha: 1.2,
	}
}

// genShard is the number of items one worker generates per grab.
const genShard = 256

// validate panics with a message on a configuration GenWeb cannot
// generate from: a file id must fit its int32, a connection needs at
// least one request on average, and sizes must form a positive range.
func (cfg WebConfig) validate() {
	if cfg.NumFiles < 1 || cfg.NumFiles > math.MaxInt32 {
		panic(fmt.Sprintf("workload: WebConfig.NumFiles must be in [1, %d] (got %d)", math.MaxInt32, cfg.NumFiles))
	}
	if cfg.NumConns < 0 {
		panic(fmt.Sprintf("workload: WebConfig.NumConns must not be negative (got %d)", cfg.NumConns))
	}
	if cfg.MeanReqs < 1 {
		panic(fmt.Sprintf("workload: WebConfig.MeanReqs must be at least 1 (got %d)", cfg.MeanReqs))
	}
	if cfg.MinSize <= 0 || cfg.MinSize > cfg.MaxSize {
		panic(fmt.Sprintf("workload: WebConfig sizes must satisfy 0 < MinSize <= MaxSize (got %d, %d)", cfg.MinSize, cfg.MaxSize))
	}
}

// GenWeb generates a web trace from cfg. The draw sequence is the
// classic single-stream one — sizes for every file, then per connection
// a geometric request count followed by one Zipf draw per request — so
// the trace is bit-identical to the original sequential generator at any
// seed. Generation is still sharded across the par worker pool: the
// expensive draws (Pareto sizes, Zipf binary searches) consume a known
// number of stream positions, so a cheap sequential pre-pass records
// each connection's offset in the stream and every worker jumps there in
// O(1) with RNG.Skip.
func GenWeb(cfg WebConfig) *WebTrace {
	cfg.validate()
	// File sizes: size i is draw i of the stream.
	sizes := make([]int64, cfg.NumFiles)
	par.Do((cfg.NumFiles+genShard-1)/genShard, func(s int) {
		lo, hi := s*genShard, (s+1)*genShard
		if hi > cfg.NumFiles {
			hi = cfg.NumFiles
		}
		rng := vclock.NewRNG(cfg.Seed)
		rng.Skip(uint64(lo))
		for i := lo; i < hi; i++ {
			sizes[i] = int64(rng.Pareto(float64(cfg.MinSize), float64(cfg.MaxSize), cfg.SizeAlpha))
		}
	})

	// Pre-pass: draw each connection's geometric request count (cheap)
	// and record where its Zipf draws start in the stream and where its
	// requests start in the trace's one request array (they end where the
	// next connection's start); skip past them.
	type connPlan struct {
		at        int
		zipfStart uint64
	}
	plans := make([]connPlan, cfg.NumConns)
	rng := vclock.NewRNG(cfg.Seed)
	rng.Skip(uint64(cfg.NumFiles))
	off := uint64(cfg.NumFiles)
	reqs := 0
	for c := range plans {
		// Geometric number of requests with the configured mean (same
		// draw-per-test shape as the original loop).
		n := 1
		for {
			off++
			if rng.Float64() <= 1.0/float64(cfg.MeanReqs) {
				break
			}
			n++
			if n >= 8*cfg.MeanReqs {
				break
			}
		}
		plans[c] = connPlan{at: reqs, zipfStart: off}
		rng.Skip(uint64(n))
		off += uint64(n)
		reqs += n
	}

	// Requests: workers replay each connection's Zipf draws from its
	// recorded stream position into its window of one array, capped at
	// its length so an append to one connection's requests copies them
	// rather than overwrite the next connection's.
	zipf := vclock.NewZipfTable(cfg.NumFiles, cfg.ZipfS) // shared read-only table
	all := make([]Request, reqs)
	tr := &WebTrace{Files: sizes, Conns: make([]Connection, cfg.NumConns)}
	par.Do((cfg.NumConns+genShard-1)/genShard, func(s int) {
		lo, hi := s*genShard, (s+1)*genShard
		if hi > cfg.NumConns {
			hi = cfg.NumConns
		}
		for c := lo; c < hi; c++ {
			crng := vclock.NewRNG(cfg.Seed)
			crng.Skip(plans[c].zipfStart)
			end := reqs
			if c+1 < len(plans) {
				end = plans[c+1].at
			}
			reqs := all[plans[c].at:end:end]
			for r := range reqs {
				reqs[r] = Request{File: int32(zipf.Sample(crng))}
			}
			tr.Conns[c] = Connection{Reqs: reqs}
		}
	})
	// Deterministic index-order total (int64 addition commutes, but keep
	// the reduction out of the parallel phase anyway).
	for _, conn := range tr.Conns {
		for _, r := range conn.Reqs {
			tr.TotalBytes += tr.Size(r)
		}
	}
	return tr
}

// The fourteen TPC-W interactions (§8.4, Table 1).
const (
	AdminConfirm         = "AdminConfirm"
	AdminRequest         = "AdminRequest"
	BestSellers          = "BestSellers"
	BuyConfirm           = "BuyConfirm"
	BuyRequest           = "BuyRequest"
	CustomerRegistration = "CustomerRegistration"
	Home                 = "Home"
	NewProducts          = "NewProducts"
	OrderDisplay         = "OrderDisplay"
	OrderInquiry         = "OrderInquiry"
	ProductDetail        = "ProductDetail"
	SearchRequest        = "SearchRequest"
	SearchResult         = "SearchResult"
	ShoppingCart         = "ShoppingCart"
)

// Interactions lists all fourteen TPC-W interactions in a stable order.
var Interactions = []string{
	AdminConfirm, AdminRequest, BestSellers, BuyConfirm, BuyRequest,
	CustomerRegistration, Home, NewProducts, OrderDisplay, OrderInquiry,
	ProductDetail, SearchRequest, SearchResult, ShoppingCart,
}

// BrowsingMix gives the TPC-W browsing-mix probability (percent) per
// interaction — the mix used throughout §8.4.
var BrowsingMix = map[string]float64{
	Home:                 29.00,
	NewProducts:          11.00,
	BestSellers:          11.00,
	ProductDetail:        21.00,
	SearchRequest:        12.00,
	SearchResult:         11.00,
	ShoppingCart:         2.00,
	CustomerRegistration: 0.82,
	BuyRequest:           0.75,
	BuyConfirm:           0.69,
	OrderInquiry:         0.30,
	OrderDisplay:         0.25,
	AdminRequest:         0.10,
	AdminConfirm:         0.09,
}

// ShoppingMix is the TPC-W shopping mix (WIPSo): more cart and order
// activity than browsing. Provided for experiments beyond the paper's
// browsing-mix runs.
var ShoppingMix = map[string]float64{
	Home:                 16.00,
	NewProducts:          5.00,
	BestSellers:          5.00,
	ProductDetail:        17.00,
	SearchRequest:        20.00,
	SearchResult:         17.00,
	ShoppingCart:         11.60,
	CustomerRegistration: 3.00,
	BuyRequest:           2.60,
	BuyConfirm:           1.20,
	OrderInquiry:         0.75,
	OrderDisplay:         0.66,
	AdminRequest:         0.10,
	AdminConfirm:         0.09,
}

// OrderingMix is the TPC-W ordering mix (WIPSb): order-heavy, exercising
// the write paths (BuyConfirm's order_line inserts) hardest.
var OrderingMix = map[string]float64{
	Home:                 9.12,
	NewProducts:          0.46,
	BestSellers:          0.46,
	ProductDetail:        12.35,
	SearchRequest:        14.53,
	SearchResult:         13.08,
	ShoppingCart:         13.53,
	CustomerRegistration: 12.86,
	BuyRequest:           12.73,
	BuyConfirm:           10.18,
	OrderInquiry:         0.25,
	OrderDisplay:         0.22,
	AdminRequest:         0.12,
	AdminConfirm:         0.11,
}

// MixSampler draws interactions from a weighted mix.
type MixSampler struct {
	rng       *vclock.RNG
	kinds     []int // positions in Interactions of the weighted ones
	weights   []float64
	thinkMean vclock.Duration
}

// NewMixSampler builds a sampler over the given mix with its own seeded
// stream.
func NewMixSampler(seed uint64, mix map[string]float64) *MixSampler {
	s := &MixSampler{rng: vclock.NewRNG(seed), thinkMean: 7 * vclock.Second}
	for i, name := range Interactions {
		if w, ok := mix[name]; ok && w > 0 {
			s.kinds = append(s.kinds, i)
			s.weights = append(s.weights, w)
		}
	}
	return s
}

// Next draws the next interaction name.
func (s *MixSampler) Next() string { return Interactions[s.NextIndex()] }

// NextIndex draws the next interaction as its position in Interactions —
// the dense id a model keeps per-interaction state under.
func (s *MixSampler) NextIndex() int { return s.kinds[s.rng.Pick(s.weights)] }

// SetThinkMean overrides the TPC-W default 7s think-time mean (the
// 10x cap scales with it). The default draws are unchanged, so seeded
// runs that never call this stay bit-identical.
func (s *MixSampler) SetThinkMean(mean vclock.Duration) {
	if mean <= 0 {
		panic("workload: think-time mean must be positive")
	}
	s.thinkMean = mean
}

// ThinkTime draws a TPC-W think time: exponential with mean 7s (see
// SetThinkMean), capped at ten times the mean per the TPC-W spec.
func (s *MixSampler) ThinkTime() vclock.Duration {
	d := s.rng.Exp(s.thinkMean)
	if max := 10 * s.thinkMean; d > max {
		d = max
	}
	return d
}
