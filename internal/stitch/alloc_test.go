package stitch

// What a stage dump and a stitched graph allocate, and what a dump
// shares with the stage it was taken from. A dump allocates its tree
// list and two arrays for the whole stage, the records and their paths,
// whatever its tree count; with one endpoint it shares the endpoint's
// send log. The graph allocates its nodes and its edges once each,
// however many trees share a prefix, and its two indexes too when they
// outgrow the stack (above 64 trees).

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"whodunit/internal/ipc"
	"whodunit/internal/profiler"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

// runStage runs one thread of a Whodunit-mode stage through phases: in
// phase k it takes a sample in each of the first ctxts[k] contexts, each
// under its own prefix chain and in one of three leaf frames, and sends
// one chain from each. After each phase but the last, between runs it
// calls between.
func runStage(ctxts []int, between func(*profiler.Profiler, *ipc.Endpoint)) (*profiler.Profiler, *ipc.Endpoint) {
	s := vclock.New()
	cpu := s.NewCPU("cpu", 1)
	prof := profiler.New("stage", profiler.ModeWhodunit)
	ep := ipc.NewEndpoint("stage")
	s.Go("worker", func(th *vclock.Thread) {
		pr := prof.NewProbe(th, cpu)
		for k, n := range ctxts {
			for i := range n {
				pr.SetTxn(profiler.TxnCtxt{Prefix: tranctx.Chain{tranctx.Synopsis(i + 1)}})
				func() {
					defer pr.Exit(pr.Enter("serve"))
					defer pr.Exit(pr.Enter(fmt.Sprintf("leaf%d", i%3)))
					pr.Compute(profiler.DefaultInterval)
					ep.Send(pr, nil)
				}()
			}
			if k < len(ctxts)-1 {
				between(prof, ep)
			}
		}
	})
	s.Run()
	s.Shutdown()
	return prof, ep
}

// deepCopy returns a copy of d that shares no array with it.
func deepCopy(d StageDump) StageDump {
	c := d
	c.Sends = slices.Clone(d.Sends)
	c.Trees = slices.Clone(d.Trees)
	for i := range c.Trees {
		recs := slices.Clone(c.Trees[i].Records)
		for j := range recs {
			recs[j].Path = slices.Clone(recs[j].Path)
		}
		c.Trees[i].Records = recs
	}
	return c
}

// TestDumpUnchangedByLaterWrites pins what a dump of a running stage
// shares with it: nothing a later write changes. The dump is taken
// through View after three sends, so the endpoint's log has spare
// capacity and the next send writes into the array the dump's Sends
// share. Then the stage samples into the dumped contexts and into new
// ones, under new frames, and sends new chains. The dump must equal the
// deep copy taken when it was made, while a fresh dump has grown.
func TestDumpUnchangedByLaterWrites(t *testing.T) {
	var dump, want StageDump
	prof, ep := runStage([]int{3, 12}, func(prof *profiler.Profiler, ep *ipc.Endpoint) {
		dump = Dump(prof.View(), ep)
		want = deepCopy(dump)
		if cap(ep.Sends()) != len(ep.Sends()) {
			t.Errorf("Sends is %d long with capacity %d: not capped", len(ep.Sends()), cap(ep.Sends()))
		}
	})
	if len(want.Sends) != 3 || len(want.Trees) != 3 {
		t.Fatalf("dump at the first phase has %d sends and %d trees, want 3 and 3", len(want.Sends), len(want.Trees))
	}
	if !reflect.DeepEqual(dump, want) {
		t.Fatalf("later samples and sends changed a dump taken before them:\n got %+v\nwant %+v", dump, want)
	}
	now := Dump(prof.View(), ep)
	if len(now.Sends) != 12 || len(now.Trees) != 12 || reflect.DeepEqual(now.Trees[:3], want.Trees) {
		t.Fatalf("the stage did not grow after the dump: %d sends, %d trees", len(now.Sends), len(now.Trees))
	}
}

// TestDumpAllocationsIndependentOfTreeCount pins the shape of a stage
// dump: the tree list, one record array and one path array, for 1, 8
// or 64 trees, with the endpoint's sends shared, not copied.
func TestDumpAllocationsIndependentOfTreeCount(t *testing.T) {
	for _, trees := range []int{1, 8, 64} {
		prof, ep := runStage([]int{trees}, nil)
		view := prof.View()
		if d := Dump(view, ep); len(d.Trees) != trees || len(d.Sends) != trees {
			t.Fatalf("%d contexts dump to %d trees and %d sends", trees, len(d.Trees), len(d.Sends))
		}
		if a := testing.AllocsPerRun(20, func() { Dump(view, ep) }); a != 3 {
			t.Errorf("Dump of %d trees allocates %.1f times, want 3", trees, a)
		}
	}
}

// sharedPrefixDumps returns a caller stage sending chain "P" once and a
// callee stage of total trees, shared of which have prefix "P" and the
// rest a prefix of their own.
func sharedPrefixDumps(total, shared int) []StageDump {
	caller := StageDump{
		Stage: "caller",
		Trees: []TreeDump{{Key: "0", Label: "(root)"}},
		Sends: []ipc.SendRecord{{Chain: "P", FromKey: "0"}},
	}
	callee := StageDump{Stage: "callee", Trees: make([]TreeDump, total)}
	for i := range callee.Trees {
		prefix := "P"
		if i >= shared {
			prefix = fmt.Sprintf("Q%d", i)
		}
		callee.Trees[i] = TreeDump{Key: fmt.Sprintf("%s|%d", prefix, i), Prefix: prefix, Label: prefix}
	}
	return []StageDump{caller, callee}
}

// TestBuildPartialAllocationsIndependentOfSharing pins the shape of the
// stitched graph: a graph of 501 trees allocates as often when 1 of
// them has the sent chain as prefix as when 500 have, where a slice per
// prefix grew with each tree.
func TestBuildPartialAllocationsIndependentOfSharing(t *testing.T) {
	var allocs []float64
	for _, shared := range []int{1, 500} {
		dumps := sharedPrefixDumps(500, shared)
		if g := BuildPartial(dumps, nil); len(g.Edges) != 2*shared {
			t.Fatalf("%d trees share the sent chain; %d edges, want %d", shared, len(g.Edges), 2*shared)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() { BuildPartial(dumps, nil) }))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("BuildPartial allocates %.1f times when 1 tree has the sent prefix, %.1f when 500 have", allocs[0], allocs[1])
	}
}

// BenchmarkBuildPartialSharedPrefix stitches a send into n callee trees
// that all share its chain. The ns/tree column stays about flat from 10
// to 1000 trees (on a 2-core x86-64 VM it read 337, 341 and 384): a call
// is linear in the tree count, but for the edge sort's log factor.
func BenchmarkBuildPartialSharedPrefix(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("trees=%d", n), func(b *testing.B) {
			dumps := sharedPrefixDumps(n, n)
			b.ReportAllocs()
			for b.Loop() {
				BuildPartial(dumps, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tree")
		})
	}
}
