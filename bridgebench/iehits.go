package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// ieHits is the paper's hit path: the inference engine asks bound-constant
// kinship goals through an unbounded CMS that, once warm, answers nearly
// every CAQL query from cache.
type ieHits struct {
	seed   int64
	people int
	nSess  int
	warm   int
	oracle map[string]map[int]map[string]map[string]bool // pred → bound position → constant → answers
	order  [][]ieGoal                                    // per predicate, every binding in a seeded order
}

// iePreds are the asked predicates. Recursive anc is left out: one bound
// anc ask costs about as much as a hundred of these.
var iePreds = []string{"father", "mother", "grandparent", "sibling", "uncle", "cousin", "elder_parent"}

func newIEHits(seed int64, people, sessions, warm int) (*ieHits, error) {
	w := &ieHits{seed: seed, people: people, nSess: sessions, warm: warm,
		oracle: map[string]map[int]map[string]map[string]bool{}}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range iePreds {
		var gs []ieGoal
		for pos := 0; pos < 2; pos++ {
			for i := 0; i < people; i++ {
				gs = append(gs, ieGoal{p, pos, fmt.Sprintf("p%03d", i)})
			}
		}
		rng.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		w.order = append(w.order, gs)
	}
	// The oracle is the loose-coupled system over an in-process engine,
	// evaluating each predicate set-at-a-time (compiled strategy); a bound
	// goal's answers are the matching rows of its predicate's extension.
	wl := workload.Kinship(seed, people)
	cfg := core.DefaultConfig()
	cfg.Comparator = core.ComparatorLoose
	cfg.IE.Strategy = ie.StrategyCompiled
	sys, err := core.NewSystem(wl.KB, remotedb.NewInProcClient(wl.Engine(), remotedb.DefaultCosts()), cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range iePreds {
		sol, err := sys.Ask(logic.A(p, logic.V("X"), logic.V("Y")))
		if err != nil {
			return nil, err
		}
		byPos := map[int]map[string]map[string]bool{0: {}, 1: {}}
		for {
			sub, ok := sol.Next()
			if !ok {
				break
			}
			x, y := sub.Walk(logic.V("X")).Const.Key(), sub.Walk(logic.V("Y")).Const.Key()
			addKey(byPos[0], x, y)
			addKey(byPos[1], y, x)
		}
		if err := sol.Err(); err != nil {
			return nil, err
		}
		w.oracle[p] = byPos
	}
	return w, nil
}

func addKey(m map[string]map[string]bool, k, v string) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	m[k][v] = true
}

func (w *ieHits) sessions() int { return w.nSess }
func (w *ieHits) poolSize() int { return 2 }
func (w *ieHits) fsync() string { return "none (in-memory engine)" }

// ieGoal is one request: a predicate with one argument bound.
type ieGoal struct {
	pred   string
	pos    int
	person string
}

// goal returns request k of session s: the predicates in turn, and within a
// predicate every binding (position, person) in a seeded order, the sessions
// half a cycle apart. Predicates differ in cost by 30x and persons by family
// size, so a drawn mix would move every figure from run to run.
func (w *ieHits) goal(s, k int) ieGoal {
	gs := w.order[k%len(iePreds)]
	return gs[(k/len(iePreds)+s*len(gs)/2)%len(gs)]
}

func (g ieGoal) atom() logic.Atom {
	args := []logic.Term{logic.V("X"), logic.V("Y")}
	args[g.pos] = logic.CStr(g.person)
	return logic.A(g.pred, args...)
}

type ieInst struct {
	w     *ieHits
	srv   *remotedb.Server
	eng   *remotedb.Engine
	pool  *remotedb.PoolClient
	sys   *core.System
	asker *ie.Engine
	asks  []int64
	got   []map[string]bool // per-session answer sets, reused across asks
	addrS string
}

func (w *ieHits) setup(t *tracer, _ string) (instance, error) {
	wl := workload.Kinship(w.seed, w.people)
	eng := wl.Engine()
	srv := remotedb.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: w.poolSize()})
	if err != nil {
		srv.Close()
		return nil, err
	}
	var client remotedb.Client = pool
	if t != nil {
		client = newTracedClient(t, pool)
	}
	sys, err := core.NewSystem(wl.KB, client, core.DefaultConfig())
	if err != nil {
		pool.Close()
		srv.Close()
		return nil, err
	}
	in := &ieInst{w: w, srv: srv, eng: eng, pool: pool, sys: sys, asker: sys.Engine, addrS: addr,
		asks: make([]int64, w.nSess), got: make([]map[string]bool, w.nSess)}
	for s := range in.got {
		in.got[s] = map[string]bool{}
	}
	if t != nil {
		in.asker = ie.New(sys.KB, &tracedDS{t: t, inner: sys.DS}, sys.Config.IE)
	}
	// Warm-up: seeded asks of every predicate, drawn apart from the streams.
	wrng := rand.New(rand.NewSource(sessionSeed(w.seed, -1)))
	for i := 0; i < w.warm; i++ {
		gs := w.order[i%len(iePreds)]
		if s := in.ask(0, gs[wrng.Intn(len(gs))]); s.failed {
			in.close()
			return nil, fmt.Errorf("ie_hits: warm-up ask failed")
		}
	}
	return in, nil
}

// ask submits one goal, drains every answer, and checks the distinct answer
// set against the oracle.
func (in *ieInst) ask(s int, g ieGoal) sample {
	free := logic.V([]string{"X", "Y"}[1-g.pos])
	t0 := time.Now()
	sol, err := in.asker.Ask(g.atom())
	if err != nil {
		return sample{lat: time.Since(t0), first: time.Since(t0), failed: true}
	}
	var first time.Duration
	got := in.got[s]
	clear(got)
	for {
		sub, ok := sol.Next()
		if first == 0 {
			first = time.Since(t0)
		}
		if !ok {
			break
		}
		got[sub.Walk(free).Const.Key()] = true
	}
	smp := sample{lat: time.Since(t0), first: first}
	want := in.w.oracle[g.pred][g.pos][relation.Str(g.person).Key()]
	smp.failed = sol.Err() != nil || !sameSet(got, want)
	return smp
}

func (in *ieInst) step(s int) []sample {
	g := in.w.goal(s, int(in.asks[s]))
	in.asks[s]++
	return []sample{in.ask(s, g)}
}

func (in *ieInst) exhausted() bool { return false }

func (in *ieInst) snapshot() snap {
	sn := cmsSnap(in.sys.CMS(), in.eng)
	for _, a := range in.asks {
		sn.asks += a
	}
	return sn
}

func (in *ieInst) engine() *remotedb.Engine { return in.eng }
func (in *ieInst) addr() string             { return in.addrS }

func (in *ieInst) close() {
	in.pool.Close()
	in.srv.Close()
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
