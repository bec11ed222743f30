package matching

import (
	"fmt"

	"stopss/internal/message"
)

// Cluster implements the clustering approach of Fabret, Jacobsen,
// Llirbat, Pereira, Ross and Shasha, "Filtering algorithms and
// implementation for very fast publish/subscribe systems" (SIGMOD 2001) —
// citation [4] of the S-ToPSS paper.
//
// Each subscription is assigned an access predicate: one of its equality
// predicates (attribute, value). Subscriptions sharing an access
// predicate form a cluster stored in a hash table. Matching an event
// probes, for every (attribute, value) pair it carries, the cluster of
// that pair and verifies the member subscriptions' plans — in pushdown
// order with early exit, so the residual check is as cheap as the
// optimizer can make it. Subscriptions without any equality predicate
// cannot be clustered and live in a small fallback list that is scanned
// fully.
//
// The access predicate is chosen as the equality predicate whose
// (attr, value) cluster is currently smallest, a standard load-balancing
// heuristic from the paper.
type Cluster struct {
	planner
	clusters    map[string][]*kSub // access key → members
	unclustered []*kSub
	subs        map[message.SubID]*kSub
}

type kSub struct {
	id   message.SubID
	plan *Plan
	key  string // access cluster key; "" when unclustered
}

// accessKey builds the hash key of an equality predicate's cluster.
func accessKey(attr string, v message.Value) string {
	return attr + "\x1f" + v.Canonical()
}

// NewCluster returns an empty cluster matcher.
func NewCluster() *Cluster {
	return &Cluster{
		planner:  newPlanner(),
		clusters: make(map[string][]*kSub),
		subs:     make(map[message.SubID]*kSub),
	}
}

// Name implements Matcher.
func (m *Cluster) Name() string { return "cluster" }

// Size implements Matcher.
func (m *Cluster) Size() int { return len(m.subs) }

// Clusters reports the number of non-empty clusters (a matcher-scaling
// statistic).
func (m *Cluster) Clusters() int { return len(m.clusters) }

// Unclustered reports how many subscriptions fell back to the scan list.
func (m *Cluster) Unclustered() int { return len(m.unclustered) }

// Add implements Matcher.
func (m *Cluster) Add(id message.SubID, p *Plan) error {
	if p == nil {
		return fmt.Errorf("matching: nil plan for subscription %d", id)
	}
	if _, dup := m.subs[id]; dup {
		return fmt.Errorf("matching: subscription %d already indexed", id)
	}
	ks := &kSub{id: id, plan: p}
	// Pick the equality predicate with the smallest current cluster.
	best, bestLen := "", -1
	for i := range p.Preds() {
		pp := &p.Preds()[i]
		if pp.Pred.Op != message.OpEq {
			continue
		}
		key := accessKey(pp.Pred.Attr, pp.Pred.Val)
		if n := len(m.clusters[key]); bestLen < 0 || n < bestLen {
			best, bestLen = key, n
		}
	}
	if best == "" {
		m.unclustered = append(m.unclustered, ks)
	} else {
		ks.key = best
		m.clusters[best] = append(m.clusters[best], ks)
	}
	m.subs[id] = ks
	m.retain(p)
	return nil
}

// Remove implements Matcher.
func (m *Cluster) Remove(id message.SubID) bool {
	ks, ok := m.subs[id]
	if !ok {
		return false
	}
	delete(m.subs, id)
	m.release(ks.plan)
	if ks.key == "" {
		m.unclustered = removeSub(m.unclustered, ks)
		return true
	}
	members := removeSub(m.clusters[ks.key], ks)
	if len(members) == 0 {
		delete(m.clusters, ks.key)
	} else {
		m.clusters[ks.key] = members
	}
	return true
}

func removeSub(s []*kSub, target *kSub) []*kSub {
	for i := range s {
		if s[i] == target {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Match implements Matcher.
func (m *Cluster) Match(e message.Event, scratch []message.SubID) []message.SubID {
	m.view.reset(e)
	out, start := scratch, len(scratch)
	seenKeys := make(map[string]bool, e.Len())
	for _, pair := range e.Pairs() {
		key := accessKey(pair.Attr, pair.Val)
		if seenKeys[key] {
			continue // duplicate pair: same cluster, skip re-probe
		}
		seenKeys[key] = true
		for _, ks := range m.clusters[key] {
			if ks.plan.eval(&m.view) {
				out = append(out, ks.id)
			}
		}
	}
	for _, ks := range m.unclustered {
		if ks.plan.eval(&m.view) {
			out = append(out, ks.id)
		}
	}
	sortIDs(out[start:])
	return out
}
