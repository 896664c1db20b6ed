// Package haboob models the Haboob SEDA web server of §8.3: eight stages
// (ListenStage, HttpServer, ReadStage, HttpRecv, CacheStage, MissStage,
// File I/O, WriteStage) connected by stage queues, with an in-memory page
// cache. A transaction reaches WriteStage either via the cache-hit path
// (CacheStage→WriteStage) or the miss path (CacheStage→MissStage→File
// I/O→WriteStage), so WriteStage's CPU appears under two transaction
// contexts — the Figure 10 result.
//
// The model is an App/Stage composition: SEDA stages are declared with
// Stage.SEDAStage over App.NewQueue transports, and each worker thread's
// probe is bound with Stage.Worker, so stage-sequence contexts propagate
// through the middleware with no wiring here.
//
// The page-cache size and the per-operation costs are calibration
// constants of the model (the const block after the stage names),
// fixed once against the paper's figures; Config holds only what a run
// varies.
package haboob

import (
	"fmt"

	"whodunit"
	"whodunit/internal/workload"
)

// Stage names (Figure 10).
const (
	StListen = "ListenStage"
	StHTTP   = "HttpServer"
	StRead   = "ReadStage"
	StRecv   = "HttpRecv"
	StCache  = "CacheStage"
	StMiss   = "MissStage"
	StFileIO = "FileIOStage"
	StWrite  = "WriteStage"
)

// The §8.3/§9.3 experiment scale (Haboob is an order of magnitude
// slower than Apache in the paper): the page cache's capacity in
// objects and the per-operation CPU costs.
const (
	cacheObjects = 300
	listenCost   = 20 * whodunit.Microsecond
	acceptCost   = 60 * whodunit.Microsecond
	readCost     = 50 * whodunit.Microsecond
	parseCost    = 80 * whodunit.Microsecond
	cacheCost    = 40 * whodunit.Microsecond
	missCost     = 60 * whodunit.Microsecond
	diskPerByte  = 25 * whodunit.Nanosecond
	diskLatency  = 3 * whodunit.Millisecond
	writePerByte = 90 * whodunit.Nanosecond
)

// Config parameterises a run.
type Config struct {
	Mode            whodunit.Mode
	Trace           *workload.WebTrace
	ThreadsPerStage int
}

// DefaultConfig profiles in whodunit mode with two threads per stage.
func DefaultConfig(trace *workload.WebTrace) Config {
	return Config{
		Mode:            whodunit.ModeWhodunit,
		Trace:           trace,
		ThreadsPerStage: 2,
	}
}

// Result summarises a run.
type Result struct {
	Report         *whodunit.Report
	Profiler       *whodunit.Profiler
	Elapsed        whodunit.Duration
	BytesSent      int64
	Requests       int64
	Hits, Misses   int64
	ThroughputMbps float64
}

type task struct {
	conn workload.Connection
	next int
}

// Run drives the trace through the staged server.
func Run(cfg Config) *Result {
	if cfg.Trace == nil {
		panic("haboob: nil trace")
	}
	app := whodunit.NewApp("haboob", whodunit.WithMode(cfg.Mode), whodunit.WithCores(2))
	st := app.Stage("haboob")
	res := &Result{Profiler: st.Profiler()}

	cached := make(map[int]bool)
	cacheFIFO := []int{}
	cachePut := func(id int) {
		if cached[id] {
			return
		}
		if len(cacheFIFO) >= cacheObjects {
			delete(cached, cacheFIFO[0])
			cacheFIFO = cacheFIFO[1:]
		}
		cached[id] = true
		cacheFIFO = append(cacheFIFO, id)
	}

	// Declare the SEDA stages with queues as inputs.
	mkStage := func(name string) *whodunit.SEDAStage {
		return st.SEDAStage(name, app.NewQueue(name))
	}
	listen := mkStage(StListen)
	httpSrv := mkStage(StHTTP)
	read := mkStage(StRead)
	recv := mkStage(StRecv)
	cache := mkStage(StCache)
	miss := mkStage(StMiss)
	fileIO := mkStage(StFileIO)
	write := mkStage(StWrite)

	totalReqs := 0
	for _, c := range cfg.Trace.Conns {
		totalReqs += len(c.Reqs)
	}

	// handler bodies; each returns after enqueueing downstream.
	handlers := map[string]func(w *whodunit.SEDAWorker, pr *whodunit.Probe, th *whodunit.Thread, t *task){
		StListen: func(w *whodunit.SEDAWorker, pr *whodunit.Probe, th *whodunit.Thread, t *task) {
			pr.Compute(listenCost)
			w.Enqueue(httpSrv, t)
		},
		StHTTP: func(w *whodunit.SEDAWorker, pr *whodunit.Probe, th *whodunit.Thread, t *task) {
			pr.Compute(acceptCost)
			w.Enqueue(read, t)
		},
		StRead: func(w *whodunit.SEDAWorker, pr *whodunit.Probe, th *whodunit.Thread, t *task) {
			pr.Compute(readCost)
			w.Enqueue(recv, t)
		},
		StRecv: func(w *whodunit.SEDAWorker, pr *whodunit.Probe, th *whodunit.Thread, t *task) {
			pr.Compute(parseCost)
			w.Enqueue(cache, t)
		},
		StCache: func(w *whodunit.SEDAWorker, pr *whodunit.Probe, th *whodunit.Thread, t *task) {
			pr.Compute(cacheCost)
			req := t.conn.Reqs[t.next]
			if cached[int(req.File)] {
				res.Hits++
				w.Enqueue(write, t)
			} else {
				res.Misses++
				w.Enqueue(miss, t)
			}
		},
		StMiss: func(w *whodunit.SEDAWorker, pr *whodunit.Probe, th *whodunit.Thread, t *task) {
			pr.Compute(missCost)
			w.Enqueue(fileIO, t)
		},
		StFileIO: func(w *whodunit.SEDAWorker, pr *whodunit.Probe, th *whodunit.Thread, t *task) {
			req := t.conn.Reqs[t.next]
			th.Sleep(diskLatency)
			pr.Compute(whodunit.Duration(cfg.Trace.Size(req)) * diskPerByte)
			cachePut(int(req.File))
			w.Enqueue(write, t)
		},
		StWrite: func(w *whodunit.SEDAWorker, pr *whodunit.Probe, th *whodunit.Thread, t *task) {
			size := cfg.Trace.Size(t.conn.Reqs[t.next])
			pr.Compute(whodunit.Duration(size) * writePerByte)
			res.BytesSent += size
			res.Requests++
			t.next++
			if t.next < len(t.conn.Reqs) {
				// Persistent connection: back to ReadStage. The §4.2 loop
				// pruning keeps the context bounded.
				w.Enqueue(read, t)
			}
		},
	}

	stages := []*whodunit.SEDAStage{listen, httpSrv, read, recv, cache, miss, fileIO, write}
	for _, ss := range stages {
		q := ss.In.(*whodunit.Queue)
		for i := 0; i < cfg.ThreadsPerStage; i++ {
			st.Go(fmt.Sprintf("%s-%d", ss.Name, i), func(th *whodunit.Thread, pr *whodunit.Probe) {
				w := st.Worker(ss, pr)
				for {
					elem := q.Get(th).(*whodunit.SEDAElem)
					t := w.Begin(elem).(*task)
					func() {
						defer pr.Exit(pr.Enter(ss.Name))
						handlers[ss.Name](w, pr, th, t)
					}()
				}
			})
		}
	}

	// Inject one element per connection into the listen stage.
	for _, conn := range cfg.Trace.Conns {
		st.Inject(listen, &task{conn: conn})
	}

	rep := app.RunUntil(func() bool { return res.Requests >= int64(totalReqs) })
	res.Report = rep
	res.Elapsed = rep.Elapsed
	if res.Elapsed > 0 {
		res.ThroughputMbps = float64(res.BytesSent) * 8 / 1e6 / res.Elapsed.Seconds()
	}
	return res
}
