package tranctx

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestRootProperties(t *testing.T) {
	tb := NewTable()
	r := tb.Root()
	if !r.IsRoot() || r.Depth() != 0 || r.Synopsis() != 0 {
		t.Fatalf("root malformed: depth=%d syn=%d", r.Depth(), r.Synopsis())
	}
	if got, ok := tb.Lookup(0); !ok || got != r {
		t.Fatal("Lookup(0) should return the root")
	}
}

func TestExtendInterns(t *testing.T) {
	tb := NewTable()
	a := tb.Root().Extend(CallHop("web", "main", "foo"))
	b := tb.Root().Extend(CallHop("web", "main", "foo"))
	if a != b {
		t.Fatal("identical extensions should intern to the same context")
	}
	c := tb.Root().Extend(CallHop("web", "main", "bar"))
	if a == c {
		t.Fatal("different paths should intern differently")
	}
	if tb.Size() != 3 { // root, foo, bar
		t.Fatalf("table size = %d, want 3", tb.Size())
	}
}

func TestSynopsisRoundTrip(t *testing.T) {
	tb := NewTable()
	c := tb.Root().
		Extend(CallHop("web", "main", "handle")).
		Extend(CallHop("app", "main", "servlet", "query"))
	got, ok := tb.Lookup(c.Synopsis())
	if !ok || got != c {
		t.Fatal("synopsis did not round-trip through the table")
	}
}

func TestHopStringForms(t *testing.T) {
	cases := []struct {
		hop  Hop
		want string
	}{
		{CallHop("web", "main", "send"), "web:main>send"},
		{HandlerHop("squid", "httpAccept"), "squid@httpAccept"},
		{StageHop("haboob", "ReadStage"), "haboob#ReadStage"},
	}
	for _, c := range cases {
		if got := c.hop.String(); got != c.want {
			t.Errorf("hop string = %q, want %q", got, c.want)
		}
	}
}

func TestAppendCollapsesConsecutive(t *testing.T) {
	// §4.1: [evhA, evhB, evhB, evhB] collapses to [evhA, evhB].
	tb := NewTable()
	c := tb.Root().Append(HandlerHop("srv", "A"))
	c = c.Append(HandlerHop("srv", "B"))
	c2 := c.Append(HandlerHop("srv", "B"))
	if c2 != c {
		t.Fatalf("consecutive handler should collapse: got %v", c2.Labels())
	}
	c3 := c2.Append(HandlerHop("srv", "B")).Append(HandlerHop("srv", "B"))
	if !reflect.DeepEqual(c3.Labels(), []string{"A", "B"}) {
		t.Fatalf("labels = %v, want [A B]", c3.Labels())
	}
}

func TestAppendPrunesLoops(t *testing.T) {
	// §4.1: [accept, read, write] + read prunes to [accept, read]
	// (persistent connection example).
	tb := NewTable()
	c := tb.Root().
		Append(HandlerHop("srv", "accept")).
		Append(HandlerHop("srv", "read")).
		Append(HandlerHop("srv", "write"))
	pruned := c.Append(HandlerHop("srv", "read"))
	if !reflect.DeepEqual(pruned.Labels(), []string{"accept", "read"}) {
		t.Fatalf("labels = %v, want [accept read]", pruned.Labels())
	}
	// Continuing the persistent connection keeps the context bounded.
	again := pruned.Append(HandlerHop("srv", "write")).Append(HandlerHop("srv", "read"))
	if again != pruned {
		t.Fatalf("looping contexts should be stable, got %v", again.Labels())
	}
}

func TestAppendDoesNotPruneAcrossStages(t *testing.T) {
	// A call-path hop between handler segments breaks the prune search:
	// contexts from *earlier stages* are never rewritten.
	tb := NewTable()
	c := tb.Root().
		Append(HandlerHop("front", "read")).
		Extend(CallHop("back", "main", "recv")).
		Append(HandlerHop("back", "read"))
	if !reflect.DeepEqual(c.Labels(), []string{"read", "main>recv", "read"}) {
		t.Fatalf("labels = %v; prune must not cross the call hop", c.Labels())
	}
	// Same handler name in a *different stage* segment is also untouched.
	d := c.Append(HandlerHop("back", "write")).Append(HandlerHop("back", "read"))
	if !reflect.DeepEqual(d.Labels(), []string{"read", "main>recv", "read"}) {
		t.Fatalf("labels = %v; loop prune should stay within back's segment", d.Labels())
	}
}

func TestStageHopsFollowSameRules(t *testing.T) {
	// §4.2: SEDA stage sequences use the same collapse/prune mechanism.
	tb := NewTable()
	c := tb.Root().
		Append(StageHop("haboob", "Read")).
		Append(StageHop("haboob", "Cache")).
		Append(StageHop("haboob", "Write"))
	back := c.Append(StageHop("haboob", "Read"))
	if !reflect.DeepEqual(back.Labels(), []string{"Read"}) {
		// first occurrence of Read is the first hop
		t.Fatalf("labels = %v, want [Read]", back.Labels())
	}
}

func TestHasPrefix(t *testing.T) {
	tb := NewTable()
	a := tb.Root().Extend(CallHop("w", "main"))
	b := a.Extend(CallHop("x", "srv"))
	if !b.HasPrefix(a) || !b.HasPrefix(tb.Root()) || !b.HasPrefix(b) {
		t.Fatal("prefix relations wrong")
	}
	if a.HasPrefix(b) {
		t.Fatal("a should not have deeper b as prefix")
	}
	other := NewTable().Root()
	if b.HasPrefix(other) {
		t.Fatal("prefix must not cross tables")
	}
}

func TestHopsOrder(t *testing.T) {
	tb := NewTable()
	c := tb.Root().
		Extend(CallHop("w", "main", "a")).
		Extend(CallHop("x", "main", "b"))
	hops := c.Hops()
	if len(hops) != 2 || hops[0].Stage != "w" || hops[1].Stage != "x" {
		t.Fatalf("hops = %v, want w then x", hops)
	}
}

func TestStringRendering(t *testing.T) {
	tb := NewTable()
	if tb.Root().String() != "(root)" {
		t.Fatalf("root string = %q", tb.Root().String())
	}
	c := tb.Root().Extend(CallHop("w", "main")).Append(HandlerHop("w", "h"))
	want := "w:main | w@h"
	if c.String() != want {
		t.Fatalf("string = %q, want %q", c.String(), want)
	}
}

func TestChainWireRoundTrip(t *testing.T) {
	ch := Chain{1, 0xdeadbeef, 42}
	buf := ch.AppendWire(nil)
	if len(buf) != ch.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(buf), ch.WireSize())
	}
	got, n, err := DecodeChain(buf)
	if err != nil || n != len(buf) || !got.Equal(ch) {
		t.Fatalf("round trip failed: %v %d %v", got, n, err)
	}
}

func TestChainDecodeErrors(t *testing.T) {
	if _, _, err := DecodeChain(nil); err == nil {
		t.Fatal("empty buffer should fail")
	}
	if _, _, err := DecodeChain([]byte{2, 0, 0, 0, 1}); err == nil {
		t.Fatal("truncated chain should fail")
	}
	if _, _, err := DecodeChain([]byte{255}); err == nil {
		t.Fatal("oversized chain should fail")
	}
}

func TestChainString(t *testing.T) {
	ch := Chain{0x0a, 0x0b}
	if ch.String() != "0000000a#0000000b" {
		t.Fatalf("chain string = %q", ch.String())
	}
}

func TestQuickChainRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > chainMax {
			raw = raw[:chainMax]
		}
		ch := make(Chain, len(raw))
		for i, v := range raw {
			ch[i] = Synopsis(v)
		}
		buf := ch.AppendWire(nil)
		got, n, err := DecodeChain(buf)
		return err == nil && n == len(buf) && got.Equal(ch)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAppendBoundedUnderLoops(t *testing.T) {
	// Property (§4.1): repeatedly appending handlers from a fixed set keeps
	// the context depth bounded by the set size — loop pruning prevents
	// unbounded growth on persistent connections.
	handlers := []string{"accept", "read", "parse", "write"}
	f := func(seq []uint8) bool {
		tb := NewTable()
		c := tb.Root()
		for _, b := range seq {
			c = c.Append(HandlerHop("srv", handlers[int(b)%len(handlers)]))
			if c.Depth() > len(handlers) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInterningIsCanonical(t *testing.T) {
	// Property: building the same hop sequence twice yields pointer-equal
	// contexts (and therefore equal synopses).
	f := func(seq []uint8) bool {
		tb := NewTable()
		build := func() *Ctxt {
			c := tb.Root()
			for _, b := range seq {
				switch b % 3 {
				case 0:
					c = c.Extend(CallHop("s", "f", string(rune('a'+b%5))))
				case 1:
					c = c.Append(HandlerHop("s", string(rune('h'+b%4))))
				default:
					c = c.Append(StageHop("s", string(rune('s'+b%4))))
				}
			}
			return c
		}
		return build() == build()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestChainCompareWith: the order an endpoint sorts a slot's chains by is
// a total order (length, then elements) that agrees with EqualWith on
// equality, whatever the two lengths.
func TestChainCompareWith(t *testing.T) {
	var chains []Chain
	for _, n := range []int{1, 2, 3} {
		for v := 0; v < 1<<(2*n); v++ { // every chain of n synopses from {0..3}
			ch := make(Chain, n)
			for i := range ch {
				ch[i] = Synopsis(v >> (2 * i) & 3)
			}
			chains = append(chains, ch)
		}
	}
	for _, a := range chains {
		for _, b := range chains {
			prefix, last := b[:len(b)-1], b[len(b)-1]
			want := cmp.Compare(len(a), len(b))
			if want == 0 {
				want = slices.Compare(a, b)
			}
			if got := a.CompareWith(prefix, last); got != want {
				t.Fatalf("%v.CompareWith(%v, %d) = %d, want %d", a, prefix, last, got, want)
			}
			if (want == 0) != a.EqualWith(prefix, last) {
				t.Fatalf("%v vs %v+%d: CompareWith and EqualWith disagree", a, prefix, last)
			}
		}
	}
}
