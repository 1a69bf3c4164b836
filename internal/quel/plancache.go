package quel

import (
	"strings"
	"sync"

	"repro/internal/obs"
)

// This file implements the shared plan cache: join orders and
// access-path choices keyed by the normalized statement shape (variables
// with their types, the qualification with literals blanked, and the
// sort hint).  Re-executions of the same shape — notably the prepared-
// statement path, which rebinds literal values per execution — skip the
// ranking and path-selection work; key bounds always re-derive from the
// live literals, so a cached plan is a strategy, never stale data.
//
// Invalidation is wholesale by schema epoch: every DDL operation
// (define/drop entity, relationship, ordering, or index) bumps
// model.Database's epoch, and lookup treats an entry planned under any
// other epoch as a miss.  A cached plan therefore can never name a
// dropped index.  As a second line of defense, access replay goes
// through indexRange against the live schema and degrades to a heap
// scan if the index has vanished anyway.

// planCacheCap bounds the cache; eviction is FIFO, which is cheap and
// adequate for a workload of at most a few hundred statement shapes.
const planCacheCap = 256

// PlanCache is safe for concurrent use by many sessions.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cachedPlan
	fifo    []string
	hits    *obs.Counter // quel.plan.cache.hits
	misses  *obs.Counter // quel.plan.cache.misses
}

// cachedPlan is one memoized strategy: the join order and each
// variable's access decision, stamped with the schema epoch it was
// planned under.
type cachedPlan struct {
	epoch  uint64
	order  []string
	access map[string]cachedAccess
}

// cachedAccess replays chooseAccess without re-ranking: which attribute's
// index to range ("" = heap scan); bounds re-derive from live literals.
// fetched replays probe-driven binding: the variable is never scanned,
// its ordering probe fetches partners by ref.
type cachedAccess struct {
	attr          string
	satisfiesSort bool
	reverse       bool
	incipit       bool
	fetched       bool
}

// NewPlanCache returns an empty cache; reg may be nil (no metrics).
func NewPlanCache(reg *obs.Registry) *PlanCache {
	c := &PlanCache{cap: planCacheCap, entries: make(map[string]*cachedPlan)}
	if reg != nil {
		c.hits = reg.Counter("quel.plan.cache.hits")
		c.misses = reg.Counter("quel.plan.cache.misses")
	}
	return c
}

// Len reports the number of live entries (tests and introspection).
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *PlanCache) get(key string, epoch uint64) *cachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := c.entries[key]
	if cp == nil || cp.epoch != epoch {
		if cp != nil {
			delete(c.entries, key) // planned under an older schema
		}
		c.misses.Inc()
		return nil
	}
	c.hits.Inc()
	return cp
}

func (c *PlanCache) put(key string, cp *cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.entries[key] = cp
		return
	}
	for len(c.entries) >= c.cap && len(c.fifo) > 0 {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.entries, old)
	}
	c.entries[key] = cp
	c.fifo = append(c.fifo, key)
}

// lookupPlan consults the session's plan cache for the statement being
// planned.  Only read statements use the cache (a live emitter marks
// one); write statements are rare enough that caching buys nothing and
// their delete/update sets must never ride a stale strategy.
func (s *Session) lookupPlan(vars []string, infos map[string]varInfo, where Expr) (*cachedPlan, string) {
	if s.plans == nil || s.emit == nil {
		return nil, ""
	}
	key := s.planShapeKey(vars, infos, where)
	cp := s.plans.get(key, s.db.SchemaEpoch())
	if cp != nil && s.ps != nil {
		s.ps.CacheHit = true
	}
	return cp, key
}

// storePlan memoizes a freshly planned strategy under key.
func (s *Session) storePlan(key string, plans []*varPlan, steps []*joinStep) {
	cp := &cachedPlan{
		epoch:  s.db.SchemaEpoch(),
		order:  make([]string, len(steps)),
		access: make(map[string]cachedAccess, len(plans)),
	}
	for k, st := range steps {
		cp.order[k] = st.vp.name
	}
	for _, vp := range plans {
		cp.access[vp.name] = cachedAccess{
			attr:          vp.access.attr,
			satisfiesSort: vp.access.satisfiesSort,
			reverse:       vp.access.reverse,
			incipit:       vp.access.incipit,
			fetched:       !vp.scanned, // every variable not fetched was scanned
		}
	}
	s.plans.put(key, cp)
}

// cachedAccessPath replays a cached access decision against the live
// schema and the statement's own literals.
func (s *Session) cachedAccessPath(cp *cachedPlan, vp *varPlan, incipits map[string]string) accessPath {
	full := accessPath{est: s.estimate(vp.info)}
	ca, ok := cp.access[vp.name]
	if !ok || vp.info.isRel {
		return full
	}
	if ca.incipit {
		if pat, ok := incipits[vp.name]; ok {
			if ap, ok := s.incipitRange(vp.info, pat); ok {
				return ap
			}
		}
		return full
	}
	if ca.attr == "" {
		return full
	}
	rel := s.db.Store().Relation(s.db.InstanceRelation(vp.info.typ))
	if rel == nil {
		return full
	}
	ap, ok := s.indexRange(rel, vp.info, ca.attr, vp.sargs)
	if !ok {
		return full
	}
	ap.satisfiesSort = ca.satisfiesSort
	ap.reverse = ca.reverse
	return ap
}

// planShapeKey normalizes the statement for cache keying: variable names
// with their resolved types, the qualification with literal values
// blanked, and the sort hint.  Literal values are deliberately excluded —
// plans chosen for one set of constants serve all (the standard
// prepared-plan tradeoff); bounds re-derive per execution.
func (s *Session) planShapeKey(vars []string, infos map[string]varInfo, where Expr) string {
	var b strings.Builder
	for _, v := range vars {
		b.WriteString(v)
		b.WriteByte(':')
		b.WriteString(infos[v].typ)
		b.WriteByte(',')
	}
	b.WriteByte('|')
	shapeExpr(&b, where)
	b.WriteByte('|')
	if h := s.sortHint; h != nil {
		b.WriteString(h.v)
		b.WriteByte('.')
		b.WriteString(h.attr)
		if h.desc {
			b.WriteString(" desc")
		}
	}
	return b.String()
}

// shapeExpr renders an expression with literals blanked to "?".
func shapeExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
	case Lit:
		b.WriteByte('?')
	case Param:
		b.WriteByte('$')
	case AttrRef:
		b.WriteString(x.Var)
		b.WriteByte('.')
		b.WriteString(x.Attr)
	case VarRef:
		b.WriteString(x.Var)
	case Binary:
		b.WriteByte('(')
		shapeExpr(b, x.L)
		b.WriteByte(' ')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		shapeExpr(b, x.R)
		b.WriteByte(')')
	case Unary:
		b.WriteString(x.Op)
		b.WriteByte(' ')
		shapeExpr(b, x.X)
	case IsOp:
		b.WriteByte('(')
		shapeExpr(b, x.L)
		b.WriteString(" is ")
		shapeExpr(b, x.R)
		b.WriteByte(')')
	case OrderOp:
		b.WriteByte('(')
		shapeExpr(b, x.L)
		b.WriteByte(' ')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		shapeExpr(b, x.R)
		if x.Order != "" {
			b.WriteString(" in ")
			b.WriteString(x.Order)
		}
		b.WriteByte(')')
	case IncipitOp:
		b.WriteByte('(')
		shapeExpr(b, x.L)
		b.WriteString(" incipit ")
		shapeExpr(b, x.R)
		b.WriteByte(')')
	case Agg:
		b.WriteString(x.Fn)
		b.WriteByte('(')
		b.WriteString(x.Var)
		b.WriteByte('.')
		if x.Attr != "" {
			b.WriteString(x.Attr)
		} else {
			b.WriteString("all")
		}
		if x.Where != nil {
			b.WriteString(" where ")
			shapeExpr(b, x.Where)
		}
		b.WriteByte(')')
	default:
		b.WriteString("<?>")
	}
}
