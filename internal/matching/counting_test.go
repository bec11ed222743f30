package matching

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stopss/internal/message"
)

// countingResidency counts every entry of a Counting matcher's indexes,
// so a test can check that churn leaves none behind.
type countingResidency struct {
	preds, subs                         int
	attrs, eqKeys, eqPreds              int
	thresholds, between, exists, scan   int
	notExists, accessLists, accessSlots int
}

func (m *Counting) residency() countingResidency {
	r := countingResidency{
		preds: len(m.preds),
		subs:  len(m.subs),
		attrs: len(m.attrs),
	}
	for _, ai := range m.attrs {
		r.eqKeys += len(ai.eq)
		for _, ps := range ai.eq {
			r.eqPreds += len(ps)
		}
		r.thresholds += len(ai.lt.preds) + len(ai.le.preds) + len(ai.gt.preds) + len(ai.ge.preds)
		r.between += len(ai.between)
		r.exists += len(ai.exists)
		r.scan += len(ai.scan)
	}
	for _, set := range m.notExists {
		r.notExists += len(set)
	}
	for _, u := range m.preds {
		if len(u.access) > 0 {
			r.accessLists++
		}
		r.accessSlots += len(u.access)
	}
	return r
}

// checkAccessLists verifies the access-list invariant: every indexed
// subscription sits in its access predicate's list at its recorded
// position, and nowhere else.
func checkAccessLists(t *testing.T, m *Counting) {
	t.Helper()
	slots := 0
	for _, u := range m.preds {
		for i, cs := range u.access {
			if cs.access != u || cs.pos != i {
				t.Fatalf("subscription %d at %s[%d] records access %v at %d", cs.id, u.pred, i, cs.access.pred, cs.pos)
			}
			if m.subs[cs.id] != cs {
				t.Fatalf("access list of %s holds removed subscription %d", u.pred, cs.id)
			}
		}
		slots += len(u.access)
	}
	if slots != len(m.subs) {
		t.Fatalf("%d access-list slots for %d subscriptions", slots, len(m.subs))
	}
}

// Subscribe→unsubscribe churn with fresh values over a fixed attribute
// set, with fresh attribute names, and with many copies of one text must
// leave the matcher exactly as large as it was: no unique predicate,
// index entry or access list outlives its last subscription.
func TestCountingChurnResidency(t *testing.T) {
	m := NewCounting()
	attrs := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	// A standing population, so churned subscriptions share predicates
	// and access lists with subscriptions that stay.
	for i := 0; i < 300; i++ {
		s := message.NewSubscription(message.SubID(i+1), "c",
			message.Pred(attrs[i%6], message.OpEq, message.Int(int64(i%10))),
			message.Pred(attrs[(i+1)%6], message.OpGe, message.Int(int64(i%7))),
			message.Exists(attrs[(i+2)%6]))
		if err := Index(m, s); err != nil {
			t.Fatal(err)
		}
	}
	before := m.residency()
	next := message.SubID(1000)
	for i := 0; i < 10000; i++ {
		v := int64(100 + i)
		preds := []message.Predicate{
			message.Pred(attrs[i%6], message.OpEq, message.String(fmt.Sprintf("fresh%d", i))),
			message.Pred(attrs[(i+1)%6], []message.Op{message.OpLt, message.OpLe, message.OpGt, message.OpGe}[i%4], message.Int(v)),
		}
		switch i % 4 {
		case 0:
			preds = append(preds, message.Between(attrs[(i+2)%6], message.Int(v), message.Int(v+5)))
		case 1:
			preds = append(preds, message.Pred(attrs[(i+2)%6], message.OpPrefix, message.String(fmt.Sprintf("p%d", i))))
		case 2:
			preds = append(preds, message.Pred(attrs[(i+2)%6], message.OpNotExists, message.None()))
		case 3:
			// A standing equality: the churned subscription joins, and
			// must leave, an access list it shares.
			preds[0] = message.Pred(attrs[i%6], message.OpEq, message.Int(int64(i%10)))
		}
		if err := Index(m, message.NewSubscription(next, "c", preds...)); err != nil {
			t.Fatal(err)
		}
		if !m.Remove(next) {
			t.Fatalf("Remove(%d) reported absent", next)
		}
		next++
	}
	if after := m.residency(); after != before {
		t.Errorf("residency after 10000 churn pairs:\n got  %+v\n want %+v", after, before)
	}
	// Fresh attribute names, each with every operator kind: the
	// per-attribute index must go with its last predicate.
	for i := 0; i < 1000; i++ {
		a := fmt.Sprintf("fresh-attr%d", i)
		preds := []message.Predicate{
			message.Pred(a, message.OpEq, message.Int(int64(i))),
			message.Pred(a, []message.Op{message.OpLt, message.OpLe, message.OpGt, message.OpGe}[i%4], message.Int(int64(i))),
		}
		switch i % 3 {
		case 0:
			preds = append(preds, message.Between(a, message.Int(1), message.Int(2)), message.Exists(a))
		case 1:
			preds = append(preds, message.Pred(a, message.OpPrefix, message.String("p")))
		case 2:
			preds = append(preds, message.Pred(a+"-absent", message.OpNotExists, message.None()))
		}
		if err := Index(m, message.NewSubscription(next, "c", preds...)); err != nil {
			t.Fatal(err)
		}
		if !m.Remove(next) {
			t.Fatalf("Remove(%d) reported absent", next)
		}
		next++
	}
	if after := m.residency(); after != before {
		t.Errorf("residency after 1000 fresh-attribute churn pairs:\n got  %+v\n want %+v", after, before)
	}
	// N copies of one subscription text (predicates permuted and
	// repeated), removed in random order: identical subscriptions share
	// unique predicates, and the last copy out takes them with it.
	r := rand.New(rand.NewSource(7))
	text := []message.Predicate{
		message.Pred("dup-attr", message.OpEq, message.String("x")),
		message.Pred("dup-attr", message.OpGe, message.Int(3)),
		message.Pred("dup-absent", message.OpNotExists, message.None()),
		message.Pred(attrs[0], message.OpEq, message.Int(0)), // a standing predicate
	}
	const copies = 500
	ids := make([]message.SubID, copies)
	for i := range ids {
		preds := append([]message.Predicate(nil), text...)
		r.Shuffle(len(preds), func(a, b int) { preds[a], preds[b] = preds[b], preds[a] })
		preds = append(preds, preds[r.Intn(len(preds))])
		ids[i] = next
		if err := Index(m, message.NewSubscription(next, "c", preds...)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if got, want := m.UniquePredicates(), before.preds+3; got != want {
		t.Errorf("%d copies of one text hold %d unique predicates, want %d", copies, got, want)
	}
	checkAccessLists(t, m)
	if got := m.Match(message.E("dup-attr", "x", "dup-attr", 4, attrs[0], 0), nil); len(got) != copies {
		t.Errorf("an event matching the duplicated text matched %d subscriptions, want %d", len(got), copies)
	}
	r.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	for _, id := range ids {
		if !m.Remove(id) {
			t.Fatalf("Remove(%d) reported absent", id)
		}
	}
	if after := m.residency(); after != before {
		t.Errorf("residency after removing %d copies of one text:\n got  %+v\n want %+v", copies, after, before)
	}
	checkAccessLists(t, m)
}

// Removing a subscription from the middle of a shared access list moves
// the last member into its slot; every remaining member must still be
// found from the list and match exactly as the naive matcher says.
func TestCountingSwapDeleteKeepsAccessList(t *testing.T) {
	m, naive := NewCounting(), NewNaive()
	add := func(s message.Subscription) {
		t.Helper()
		for _, mm := range []Matcher{m, naive} {
			if err := Index(mm, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	shared := message.Pred("a", message.OpEq, message.Int(1))
	for i := 1; i <= 9; i++ {
		add(message.NewSubscription(message.SubID(i), "c", shared,
			message.Pred("b", message.OpGe, message.Int(int64(i)))))
	}
	u := m.preds[shared.Canonical()]
	if len(u.access) != 9 {
		t.Fatalf("shared equality heads %d access-list slots, want all 9", len(u.access))
	}
	// Fabret's load balancing: of two equality predicates the one with
	// the shorter access list is chosen.
	add(message.NewSubscription(10, "c", shared, message.Pred("c", message.OpEq, message.Int(2))))
	if got := m.subs[10].access.pred; got.Attr != "c" {
		t.Errorf("subscription 10 hangs off %v, want the empty (c = 2) list", got)
	}
	for _, victim := range []message.SubID{5, 1, 9} { // middle, head, tail
		if !m.Remove(victim) || !naive.Remove(victim) {
			t.Fatalf("Remove(%d) reported absent", victim)
		}
		checkAccessLists(t, m)
		for x := 0; x <= 10; x++ {
			for _, e := range []message.Event{
				message.E("a", 1, "b", x),
				message.E("a", 1, "b", x, "c", 2),
			} {
				if got, want := m.Match(e, nil), naive.Match(e, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("after removing %d: Match(%v) = %v, naive %v", victim, e, got, want)
				}
			}
		}
	}
}

// FuzzMatchersAgree derives a subscription set, some removals and one
// event from a fuzz-chosen seed and requires every matcher to return the
// naive matcher's result. shape forces the cases the random generator
// reaches rarely: every predicate a not-exists, every predicate an
// exists, or an event that carries each attribute twice.
func FuzzMatchersAgree(f *testing.F) {
	const (
		shapeRandom = iota
		shapeNotExists
		shapeExists
		shapeMultiValued
		shapes
	)
	f.Add(int64(1), uint8(40), uint8(6), uint8(shapeRandom))
	f.Add(int64(2), uint8(12), uint8(3), uint8(shapeNotExists))
	f.Add(int64(3), uint8(12), uint8(3), uint8(shapeExists))
	f.Add(int64(4), uint8(40), uint8(8), uint8(shapeMultiValued))
	f.Fuzz(func(t *testing.T, seed int64, nSubs, nRemove, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		matchers := allMatchers()
		n := 1 + int(nSubs)%64
		for i := 1; i <= n; i++ {
			s := randSubscription(r, message.SubID(i))
			for j := range s.Preds {
				switch shape % shapes {
				case shapeNotExists:
					s.Preds[j] = message.Pred(s.Preds[j].Attr, message.OpNotExists, message.None())
				case shapeExists:
					s.Preds[j] = message.Exists(s.Preds[j].Attr)
				}
			}
			for _, m := range matchers {
				if err := Index(m, s); err != nil {
					t.Fatalf("%s Add: %v", m.Name(), err)
				}
			}
		}
		for k := 0; k < int(nRemove)%(n+1); k++ {
			id := message.SubID(1 + r.Intn(n))
			want := matchers[0].Remove(id)
			for _, m := range matchers[1:] {
				if got := m.Remove(id); got != want {
					t.Fatalf("%s: Remove(%d) = %v, naive %v", m.Name(), id, got, want)
				}
			}
		}
		e := randEvent(r)
		if shape%shapes == shapeMultiValued {
			for _, p := range append([]message.Pair(nil), e.Pairs()...) {
				e.Add(p.Attr, randValue(r))
			}
		}
		want := matchers[0].Match(e, nil)
		for _, m := range matchers[1:] {
			if got := m.Match(e, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s disagrees with naive on %v:\n got %v\nwant %v", m.Name(), e, got, want)
			}
		}
	})
}
