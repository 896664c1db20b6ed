package tpcw

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"whodunit"
	"whodunit/internal/minidb"
	"whodunit/internal/workload"
)

// This file is the differential oracle for the tomcat and mysqld frame
// programs: the blocking worker bodies and execQuery the package ran
// before those tiers became run-to-completion programs — free-form
// Stage.Go threads calling minidb's blocking statements — kept,
// test-only, and started on the same wired workers through buildWith, so
// that TestTPCWFrameParity can build one configuration both ways and
// demand the same bytes.

func buildRef(cfg Config) *system {
	return buildWith(cfg, (*mysqld).refSpawn, (*tomcat).refSpawn)
}

func (m *mysqld) refSpawn(name string) {
	sys := m.sys
	sys.mysqlSt.Go(name, func(th *whodunit.Thread, pr *whodunit.Probe) {
		for {
			req := sys.mysqlQ.Get(th).(*request)
			m.ep.Recv(pr, req.msg)
			q := req.q
			func() {
				defer pr.Exit(pr.Enter("dispatch_query"))
				refExecQuery(sys.db, pr, q, sys.tables)
			}()
			req.msg = m.ep.Send(pr, nil)
			sys.dbBytes.count(req.msg, 256)
			req.dbReply(req)
		}
	})
}

func (tc *tomcat) refSpawn(name string) {
	p := tc.pod
	p.tomcatSt.Go(name, func(th *whodunit.Thread, pr *whodunit.Probe) {
		for {
			req := p.tomcatQ.Get(th).(*request)
			tc.ep.Recv(pr, req.msg)
			wr := req.q
			upstream := req.replyQ
			func() {
				defer pr.Exit(pr.Enter("servlet_" + wr.interaction()))
				pr.ComputeN(2*whodunit.Millisecond, 400) // servlet + page generation

				cache := p.caches[wr.kind] // nil: not a cached interaction
				if until, ok := cache[wr.subject]; !ok || th.Now() >= until {
					func() {
						defer pr.Exit(pr.Enter("db_rpc"))
						req.msg = tc.ep.Send(pr, nil)
						p.chains[chainKeyOf(req.msg.Chain)] = wr.interaction()
						p.bytes.count(req.msg, 512)
						req.dbReply = tc.fromDB
						tc.toDB(req)
						resp := tc.replyQ.Get(th).(*request)
						tc.ep.Recv(pr, resp.msg)
					}()
					if cache != nil {
						cache[wr.subject] = th.Now().Add(30 * whodunit.Second)
					}
				}
				pr.ComputeN(whodunit.Millisecond, 200) // response rendering
			}()
			req.msg = tc.ep.Send(pr, nil)
			p.bytes.count(req.msg, 8192)
			req.replyQ = nil
			upstream.Put(req)
		}
	})
}

// refExecQuery is the per-interaction database work as one blocking
// function: what mysqld.next issues statement by statement.
func refExecQuery(db *minidb.DB, pr *whodunit.Probe, q query, t tables) {
	switch q.interaction() {
	case workload.BestSellers:
		db.Select(pr, t.orderLine, nil, minidb.SelectOpts{TempSortRows: 38000, CountOnly: true})
		for i := int64(0); i < 50; i++ {
			db.Lookup(pr, t.item, (q.itemID+i*13)%10000)
		}
	case workload.SearchResult:
		db.Select(pr, t.item, nil, minidb.SelectOpts{WhereAttr: "subject", WhereEquals: q.subject,
			SortBy: "sales", Limit: 50, TempSortRows: 28000, CountOnly: true})
	case workload.AdminConfirm:
		db.Select(pr, t.orderLine, nil, minidb.SelectOpts{TempSortRows: 50000, CountOnly: true})
		db.Update(pr, t.item, q.itemID, func(r *minidb.Row) { r.AddAttr("cost", 1) })
	case workload.NewProducts:
		db.Select(pr, t.item, nil, minidb.SelectOpts{WhereAttr: "subject", WhereEquals: q.subject,
			SortBy: "sales", Limit: 50, CountOnly: true})
	case workload.Home:
		db.Lookup(pr, t.customer, q.itemID%2880)
		for i := int64(0); i < 5; i++ {
			db.Lookup(pr, t.item, (q.itemID+i)%10000)
		}
		db.TempSort(pr, 300)
	case workload.ProductDetail:
		db.Lookup(pr, t.item, q.itemID)
		db.Lookup(pr, t.author, q.itemID%2500)
	case workload.SearchRequest:
		db.Lookup(pr, t.item, q.itemID)
		db.Lookup(pr, t.author, q.itemID%2500)
	case workload.ShoppingCart:
		for i := int64(0); i < 3; i++ {
			db.Lookup(pr, t.item, (q.itemID+i)%10000)
		}
	case workload.BuyRequest:
		db.Lookup(pr, t.customer, q.itemID%2880)
		db.Lookup(pr, t.item, q.itemID)
	case workload.BuyConfirm:
		db.Lookup(pr, t.customer, q.itemID%2880)
		db.Insert(pr, t.orders, minidb.Row{ID: q.itemID*100000 + int64(pr.Thread().ID)})
		db.Insert(pr, t.orderLine, minidb.Row{ID: q.itemID*100000 + int64(pr.Thread().ID) + 50000,
			Attrs: []minidb.Attr{{Name: "item", Val: q.itemID}, {Name: "qty", Val: 1}}})
	case workload.OrderDisplay, workload.OrderInquiry:
		db.Lookup(pr, t.customer, q.itemID%2880)
		db.Lookup(pr, t.orders, q.itemID)
	case workload.CustomerRegistration:
		db.Lookup(pr, t.customer, q.itemID%2880)
	case workload.AdminRequest:
		db.Lookup(pr, t.item, q.itemID)
		db.Lookup(pr, t.author, q.itemID%2500)
	default:
		db.Lookup(pr, t.item, q.itemID)
	}
}

// parityMix is the browsing mix with the writers made common enough that
// a short run takes table and row locks in both modes and waits on them.
var parityMix = func() map[string]float64 {
	m := make(map[string]float64, len(workload.BrowsingMix))
	for name, w := range workload.BrowsingMix {
		m[name] = w
	}
	m[workload.AdminConfirm] = 4
	m[workload.BuyConfirm] = 6
	return m
}()

// TestTPCWFrameParity: the frame programs and the blocking bodies they
// replaced produce the same report bytes, client metrics and crosstalk
// matrix, across seeds, item engines, servlet caching, profiling modes
// and all three layouts, and under a message-delay fault plan.
func TestTPCWFrameParity(t *testing.T) {
	type variant struct {
		name  string
		tweak func(*Config)
		plan  *whodunit.FaultPlan
	}
	var variants []variant
	for _, engine := range []minidb.Engine{minidb.EngineMyISAM, minidb.EngineInnoDB} {
		for _, caching := range []bool{false, true} {
			for _, mode := range []whodunit.Mode{whodunit.ModeWhodunit, whodunit.ModeSampling, whodunit.ModeInstrumented} {
				for _, lay := range []struct {
					name     string
					replicas int
					sharded  bool
				}{{"single", 0, false}, {"serial", 3, false}, {"sharded", 3, true}} {
					variants = append(variants, variant{
						name: fmt.Sprintf("%v/caching=%v/%v/%s", engine, caching, mode, lay.name),
						tweak: func(c *Config) {
							c.ItemEngine, c.ServletCaching, c.Mode = engine, caching, mode
							c.Replicas, c.Sharded = lay.replicas, lay.sharded
						},
					})
				}
			}
		}
	}
	variants = append(variants, variant{
		name:  "delayed messages",
		tweak: func(*Config) {},
		plan: &whodunit.FaultPlan{Messages: []whodunit.MessageFault{
			{Queue: "mysql-in", DelayProb: 0.3, Delay: 7 * whodunit.Millisecond},
			{Queue: "tomcat-in", DelayProb: 0.2, Delay: 3 * whodunit.Millisecond},
		}},
	})

	run := func(v variant, seed uint64, build func(Config) *system) (*Result, []byte) {
		cfg := replicatedTestConfig(12+int(seed%4)*4, 0, false)
		cfg.Seed = seed
		cfg.Mix = parityMix
		cfg.Duration = 8 * whodunit.Second
		cfg.ThinkMean = 100 * whodunit.Millisecond
		v.tweak(&cfg)
		sys := build(cfg)
		if v.plan != nil {
			sys.app.SetFaults(v.plan)
		}
		res := sys.finish()
		var buf bytes.Buffer
		if err := res.Report.JSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	contended := 0 // runs whose crosstalk matrix had rows to compare
	for _, v := range variants {
		for seed := uint64(1); seed <= 8; seed++ {
			got, gotJSON := run(v, seed, build)
			want, wantJSON := run(v, seed, buildRef)
			name := fmt.Sprintf("%s seed=%d", v.name, seed)
			if want.Completed == 0 {
				t.Fatalf("%s: the oracle completed nothing; the case checks nothing", name)
			}
			if got.Completed != want.Completed || got.Elapsed != want.Elapsed {
				t.Errorf("%s: completed %d in %v, oracle %d in %v", name, got.Completed, got.Elapsed, want.Completed, want.Elapsed)
			}
			if !reflect.DeepEqual(got.PerType, want.PerType) {
				t.Errorf("%s: PerType differs from the oracle's", name)
			}
			if got.AppBytes != want.AppBytes || got.CtxtBytes != want.CtxtBytes {
				t.Errorf("%s: wire bytes %d/%d, oracle %d/%d", name, got.CtxtBytes, got.AppBytes, want.CtxtBytes, want.AppBytes)
			}
			if (got.Crosstalk == nil) != (want.Crosstalk == nil) {
				t.Fatalf("%s: crosstalk monitor present on one side only", name)
			}
			if want.Crosstalk != nil {
				if len(want.Crosstalk.Pairs()) > 0 {
					contended++
				}
				if !reflect.DeepEqual(got.Crosstalk.Pairs(), want.Crosstalk.Pairs()) {
					t.Errorf("%s: crosstalk matrix differs from the oracle's", name)
				}
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("%s: report JSON differs from the oracle's", name)
			}
		}
	}
	if contended < 50 {
		t.Errorf("only %d runs saw lock waits; the crosstalk comparison is close to vacuous", contended)
	}
}
