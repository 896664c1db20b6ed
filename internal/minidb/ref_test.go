package minidb

// The differential oracles for Table's two indexes. refIndex is the
// primary-key map every table had before a row loaded at the position
// equal to its id stopped needing an entry: id -> position of the latest
// row loaded under that id, for every row. refBucket is the equality
// index as it was rebuilt from scratch after any write: positions of the
// rows whose attribute has the value, in row order. Both are kept,
// test-only, as the executable old definitions.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"whodunit/internal/profiler"
	"whodunit/internal/vclock"
)

type refIndex struct{ byID map[int64]int }

func (ix *refIndex) load(id int64, pos int) { ix.byID[id] = pos }

func (ix *refIndex) index(id int64) (int, bool) {
	pos, ok := ix.byID[id]
	return pos, ok
}

func refBucket(t *Table, attr string, v int64) []int {
	var out []int
	for i := range t.rows {
		if t.rows[i].Attr(attr) == v {
			out = append(out, i)
		}
	}
	return out
}

// TestQuickIndexMatchesMap loads generated id sequences — a dense run
// from 0 in order (every row positional), the same with holes and
// swapped neighbours (positional rows between mapped ones), sparse ids
// far beyond the table, negative ids, duplicates of positional rows
// (which must shadow them), duplicates of mapped rows, and an id loaded
// under the map that a later load places positionally (which must retire
// the map's entry) — and after every load asks both indexes for every id
// loaded so far and for ids around the table's edges.
//
// Mutants this test fails (applied by hand, see CHANGES.md): index
// answering any in-range id without rows[id].ID == id, index consulting
// the positional rule before byID (a shadowed positional row answers),
// and LoadRow leaving the stale entry of an id it has just placed
// positionally.
func TestQuickIndexMatchesMap(t *testing.T) {
	loads := 1500
	if testing.Short() {
		loads = 400
	}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := vclock.NewRNG(seed)
			tab := New(vclock.New(), "db", nil).CreateTable("t", EngineInnoDB)
			ref := &refIndex{byID: map[int64]int{}}
			var ids []int64
			var positional, shadowed, retired int
			for n := 0; n < loads; n++ {
				pos := int64(tab.Len())
				var id int64
				switch k := rng.Intn(100); {
				case k < 55:
					id = pos // in order: positional
				case k < 65:
					id = pos + 1 + int64(rng.Intn(3)) // just ahead: a later in-order load may land on it
				case k < 72:
					id = pos*100000 + int64(rng.Intn(50)) + 100000 // tpcw's orders
				case k < 77:
					id = -1 - int64(rng.Intn(20))
				default:
					if len(ids) > 0 {
						id = ids[rng.Intn(len(ids))] // a duplicate: the latest load wins
					}
				}
				if p, ok := tab.index(id); ok && p == int(id) && id != pos {
					shadowed++
				}
				if _, mapped := tab.byID[id]; mapped && id == pos {
					retired++
				}
				tab.LoadRow(Row{ID: id})
				ref.load(id, int(pos))
				ids = append(ids, id)
				if id == pos {
					positional++
				}

				probe := func(id int64) {
					got, ok := tab.index(id)
					want, wantOK := ref.index(id)
					if ok != wantOK || got != want {
						t.Fatalf("load %d: index(%d) = %d, %v; the map says %d, %v", n, id, got, ok, want, wantOK)
					}
				}
				for _, id := range ids {
					probe(id)
				}
				for _, id := range []int64{-1, 0, pos - 1, pos, pos + 1, pos + 2, 1 << 40, -1 << 40} {
					probe(id)
				}
			}
			if len(tab.byID) >= tab.Len()/2 {
				t.Errorf("%d of %d rows have a map entry: positional rows are not going without", len(tab.byID), tab.Len())
			}
			if positional == 0 || shadowed == 0 || retired == 0 {
				t.Errorf("the generator missed a case it is here for: %d positional rows, %d positional rows shadowed by a duplicate, %d map entries retired by a positional load",
					positional, shadowed, retired)
			}
			t.Logf("%d rows, %d positional, %d map entries, %d positional rows shadowed, %d map entries retired",
				tab.Len(), positional, len(tab.byID), shadowed, retired)
		})
	}
}

// TestEqualityIndexSurvivesWrites: a write keeps every equality index it
// does not invalidate (an update drops the index of each attribute it
// changed, an insert extends them all), and whatever mix of writes came
// before, a WhereAttr select returns exactly the rows a scan with the
// same predicate returns, in the same order — over a dozen cached
// attributes, duplicate ids, an attribute an update adds with SetAttr,
// and updates that change nothing.
func TestEqualityIndexSurvivesWrites(t *testing.T) {
	attrs := make([]string, 12)
	for i := range attrs {
		attrs[i] = fmt.Sprint("a", i)
	}
	const late = "late" // on no row until an update adds it
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := vclock.NewRNG(seed)
			e := newEnv()
			tab := e.db.CreateTable("t", EngineInnoDB)
			newRow := func(id int64) Row {
				r := Row{ID: id}
				for _, a := range attrs {
					r.Attrs = append(r.Attrs, Attr{Name: a, Val: int64(rng.Intn(4))})
				}
				return r
			}
			for i := 0; i < 40; i++ {
				tab.LoadRow(newRow(int64(i)))
			}
			var kept, dropped, extended int
			e.go_("writer", func(pr *profiler.Probe, _ *vclock.Thread) {
				check := func(op int, attr string) {
					v := int64(rng.Intn(4))
					got := e.db.Select(pr, tab, nil, SelectOpts{WhereAttr: attr, WhereEquals: v})
					want := e.db.Select(pr, tab, func(r Row) bool { return r.Attr(attr) == v }, SelectOpts{})
					if !slices.EqualFunc(got, want, func(a, b Row) bool { return a.ID == b.ID && &a.Attrs[0] == &b.Attrs[0] }) {
						t.Fatalf("op %d: select where %s = %d returned %d rows, a scan %d", op, attr, v, len(got), len(want))
					}
					for k := range tab.eq {
						for w, idxs := range tab.eq[k].byVal {
							if len(idxs) > 0 && !slices.Equal(idxs, refBucket(tab, tab.eq[k].attr, w)) {
								t.Fatalf("op %d: cached index of %s holds %v for %d, a rebuild %v", op, tab.eq[k].attr, idxs, w, refBucket(tab, tab.eq[k].attr, w))
							}
						}
					}
				}
				for op := 0; op < 400; op++ {
					cached := len(tab.eq)
					switch k := rng.Intn(10); {
					case k < 4: // read: caches what it reads
						a := attrs[rng.Intn(len(attrs))]
						if rng.Intn(8) == 0 {
							a = late
						}
						check(op, a)
					case k < 7: // update one attribute, sometimes to the value it has
						id := int64(rng.Intn(tab.Len()))
						a, v := attrs[rng.Intn(len(attrs))], int64(rng.Intn(4))
						if rng.Intn(6) == 0 {
							a = late
						}
						isCached := func() bool {
							return slices.ContainsFunc(tab.eq, func(ix eqIndex) bool { return ix.attr == a })
						}
						wasCached, changed := isCached(), false
						e.db.Update(pr, tab, id, func(r *Row) {
							changed = r.Attr(a) != v
							r.SetAttr(a, v)
						})
						want := cached
						if wasCached && changed {
							want, dropped = cached-1, dropped+1
						}
						if len(tab.eq) != want || (changed && isCached()) {
							t.Fatalf("op %d: update of %s (cached %v, changed %v) took the cache from %d indexes to %d", op, a, wasCached, changed, cached, len(tab.eq))
						}
						kept += len(tab.eq)
					default: // insert: a fresh id, or a duplicate of an old one
						id := int64(tab.Len())
						if rng.Intn(3) == 0 {
							id = int64(rng.Intn(tab.Len()))
						}
						e.db.Insert(pr, tab, newRow(id))
						if len(tab.eq) != cached {
							t.Fatalf("op %d: an insert took the cache from %d indexes to %d", op, cached, len(tab.eq))
						}
						extended += cached
					}
				}
				for _, a := range append(attrs, late) {
					check(-1, a)
				}
				if len(tab.eq) <= 8 {
					t.Errorf("%d attributes cached at the end, want more than 8", len(tab.eq))
				}
			})
			e.s.Run()
			e.s.Shutdown()
			if kept == 0 || dropped == 0 || extended == 0 {
				t.Errorf("the generator missed a case it is here for: %d indexes kept across updates, %d dropped, %d extended by inserts", kept, dropped, extended)
			}
		})
	}
}

// TestUpdateMayNotChangePrimaryKey: the positional index and byID both
// go on answering the id a row was loaded under, so an update that
// rewrites Row.ID is refused loudly rather than left to corrupt lookups.
func TestUpdateMayNotChangePrimaryKey(t *testing.T) {
	e := newEnv()
	tab := e.db.CreateTable("item", EngineInnoDB)
	loadItems(tab, 10)
	var msg string
	e.go_("q", func(pr *profiler.Probe, _ *vclock.Thread) {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.db.Update(pr, tab, 7, func(r *Row) { r.ID = 12 })
	})
	e.s.Run()
	e.s.Shutdown()
	for _, want := range []string{"mysql.item", "row 7", "to 12"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q does not name %q", msg, want)
		}
	}
}
