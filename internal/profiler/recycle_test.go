package profiler_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"whodunit/internal/profiler"
	"whodunit/internal/stitch"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

// TestQuickRecycledWindowsMatchFresh: a stage that hands every retired
// window back (Profiler.Recycle) retires the same windows as one that
// never does. Two profilers take the same samples over K windows: the
// contexts a window samples are a random subset of the stage's, in a
// random order, so between windows the set shrinks (down to none),
// grows past every earlier window and reorders, and a context's call
// paths are deeper or shallower than the last time its tree was used.
// Every retired window's Entries and stitch.Dump must be identical on
// both sides, and a dump taken before Recycle must read the same after
// every later window has refilled the trees it was taken from.
//
// Mutants this test fails (applied by hand, see CHANGES.md): a
// Tree.Reset that keeps the root's children, a reused node that keeps
// its old children, and a recycled tree reused without a Reset.
func TestQuickRecycledWindowsMatchFresh(t *testing.T) {
	const contexts, windows = 9, 40
	frames := []string{"serve", "parse", "render", "query", "send", "log"}
	for seed := int64(1); seed <= 6; seed++ {
		plain, recycled := stage(), stage()
		rng := rand.New(rand.NewSource(seed))
		var plainDumps, recycledDumps []stitch.StageDump
		err := drive(plain, recycled, func(pp, pr *profiler.Probe) error {
			// Three handlers, each under three prefix chains.
			ctxts := func(p *profiler.Profiler) []profiler.TxnCtxt {
				chains := []tranctx.Chain{nil, {1}, {2, 3}}
				out := make([]profiler.TxnCtxt, contexts)
				for i := range out {
					local := p.Table.Root().Extend(tranctx.HandlerHop("s", fmt.Sprint("h", i%3)))
					out[i] = profiler.TxnCtxt{Prefix: chains[i/3], Local: local}
				}
				return out
			}
			cp, cr := ctxts(pp.Profiler()), ctxts(pr.Profiler())
			for w := range windows {
				n := rng.Intn(contexts + 1)
				if w%10 == 9 {
					n = contexts // a window wider than any before it
				}
				for _, c := range rng.Perm(contexts)[:n] {
					pp.SetTxn(cp[c])
					pr.SetTxn(cr[c])
					for range rng.Intn(6) + 1 {
						depth := rng.Intn(5) + 1
						var tp, tr []int
						for range depth {
							f := frames[rng.Intn(len(frames))]
							tp, tr = append(tp, pp.Enter(f)), append(tr, pr.Enter(f))
						}
						d := vclock.Duration(rng.Intn(4)+1) * profiler.DefaultInterval
						pp.Compute(d)
						pr.Compute(d)
						pp.Exit(tp[0])
						pr.Exit(tr[0])
					}
				}
				sp, sr := pp.Profiler().Retire(), pr.Profiler().Retire()
				if err := sameEntries(sp.Entries(), sr.Entries()); err != nil {
					return fmt.Errorf("window %d: %v", w, err)
				}
				dp, dr := stitch.Dump(sp), stitch.Dump(sr)
				if !reflect.DeepEqual(dp, dr) {
					return fmt.Errorf("window %d: the recycling stage dumps\n%+v\nthe other\n%+v", w, dr, dp)
				}
				plainDumps, recycledDumps = append(plainDumps, dp), append(recycledDumps, dr)
				pr.Profiler().Recycle(sr)
				if len(sr.Entries()) != 0 {
					return fmt.Errorf("window %d: a recycled snapshot still lists %d entries", w, len(sr.Entries()))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(recycledDumps) != windows {
			t.Fatalf("seed %d: %d windows retired, want %d", seed, len(recycledDumps), windows)
		}
		if !reflect.DeepEqual(plainDumps, recycledDumps) {
			t.Fatalf("seed %d: a dump taken before Recycle changed as later windows refilled its trees", seed)
		}
	}
}

// stage returns a Whodunit-mode profiler.
func stage() *profiler.Profiler { return profiler.New("stage", profiler.ModeWhodunit) }

// drive runs body on one simulated thread with a probe on each of a and
// b, both charging one CPU, and returns body's error or its panic.
func drive(a, b *profiler.Profiler, body func(pa, pb *profiler.Probe) error) error {
	s := vclock.New()
	cpu := s.NewCPU("cpu", 1)
	var err error
	s.Go("worker", func(th *vclock.Thread) { err = body(a.NewProbe(th, cpu), b.NewProbe(th, cpu)) })
	s.Run()
	s.Shutdown()
	if c := s.Crashed(); c != nil {
		return fmt.Errorf("%v", c)
	}
	return err
}

// sameEntries reports the first difference between two profilers'
// entry lists: keys, prefixes, context labels, tree labels, totals and
// flattened trees (the trees intern frames in tables of their own).
func sameEntries(a, b []profiler.TreeEntry) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries, want %d", len(b), len(a))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || x.Prefix != y.Prefix || x.Ctxt.Label() != y.Ctxt.Label() ||
			x.Tree.Label != y.Tree.Label || x.Tree.Total() != y.Tree.Total() {
			return fmt.Errorf("entry %d is (%q, %q, %q, %d), want (%q, %q, %q, %d)",
				i, y.Key, y.Prefix, y.Tree.Label, y.Tree.Total(), x.Key, x.Prefix, x.Tree.Label, x.Tree.Total())
		}
		if !reflect.DeepEqual(x.Tree.Flatten(), y.Tree.Flatten()) {
			return fmt.Errorf("entry %d (%s): the trees flatten differently", i, x.Key)
		}
	}
	return nil
}

// TestRecyclePanics: Recycle takes back only what the profiler's own
// Retire returned, and only once.
func TestRecyclePanics(t *testing.T) {
	p, other := stage(), stage()
	err := drive(p, other, func(pr, po *profiler.Probe) error {
		defer pr.Exit(pr.Enter("f"))
		defer po.Exit(po.Enter("f"))
		pr.Compute(3 * profiler.DefaultInterval)
		po.Compute(3 * profiler.DefaultInterval)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	retired, foreign := p.Retire(), other.Retire()
	p.Recycle(retired)
	for _, c := range []struct {
		name string
		snap *profiler.Snapshot
		want string
	}{
		{"view", p.View(), "did not return"},
		{"snapshot", p.Snapshot(), "did not return"},
		{"another stage's", foreign, "did not return"},
		{"twice", retired, "already recycled"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Fatalf("Recycle of a %s snapshot panicked with %q, want a message with %q", c.name, msg, c.want)
				}
			}()
			p.Recycle(c.snap)
		})
	}
}
