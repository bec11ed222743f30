package matching

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stopss/internal/message"
)

func allMatchers() []Matcher {
	return []Matcher{NewNaive(), NewCounting(), NewTree()}
}

func TestNewByName(t *testing.T) {
	for _, name := range Algorithms() {
		m, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := New("quantum"); err == nil {
		t.Error("unknown algorithm must be rejected")
	}
}

func TestAddRemoveLifecycle(t *testing.T) {
	for _, m := range allMatchers() {
		t.Run(m.Name(), func(t *testing.T) {
			s := message.NewSubscription(1, "c", message.Pred("a", message.OpEq, message.Int(1)))
			if err := Index(m, s); err != nil {
				t.Fatalf("Add: %v", err)
			}
			if err := Index(m, s); err == nil {
				t.Error("duplicate Add must fail")
			}
			if m.Size() != 1 {
				t.Errorf("Size = %d, want 1", m.Size())
			}
			if !m.Remove(1) {
				t.Error("Remove of present sub should report true")
			}
			if m.Remove(1) {
				t.Error("Remove of absent sub should report false")
			}
			if m.Size() != 0 {
				t.Errorf("Size = %d, want 0", m.Size())
			}
			if got := m.Match(message.E("a", 1), nil); len(got) != 0 {
				t.Errorf("removed subscription still matches: %v", got)
			}
			// Invalid subscriptions are rejected.
			if err := Index(m, message.NewSubscription(2, "c")); err == nil {
				t.Error("empty subscription must be rejected")
			}
		})
	}
}

func TestMatchBasicOperators(t *testing.T) {
	subs := []message.Subscription{
		message.NewSubscription(1, "c", message.Pred("sym", message.OpEq, message.String("IBM"))),
		message.NewSubscription(2, "c", message.Pred("price", message.OpGt, message.Int(100))),
		message.NewSubscription(3, "c", message.Pred("price", message.OpLe, message.Int(100))),
		message.NewSubscription(4, "c",
			message.Pred("sym", message.OpEq, message.String("IBM")),
			message.Pred("price", message.OpGe, message.Int(50))),
		message.NewSubscription(5, "c", message.Exists("volume")),
		message.NewSubscription(6, "c", message.Pred("volume", message.OpNotExists, message.None())),
		message.NewSubscription(7, "c", message.Between("price", message.Int(90), message.Int(110))),
		message.NewSubscription(8, "c", message.Pred("sym", message.OpPrefix, message.String("IB"))),
		message.NewSubscription(9, "c", message.Pred("sym", message.OpNe, message.String("MSFT"))),
		message.NewSubscription(10, "c", message.Pred("sym", message.OpContains, message.String("BM"))),
	}
	cases := []struct {
		e    message.Event
		want []message.SubID
	}{
		{message.E("sym", "IBM", "price", 100), []message.SubID{1, 3, 4, 6, 7, 8, 9, 10}},
		{message.E("sym", "IBM", "price", 101), []message.SubID{1, 2, 4, 6, 7, 8, 9, 10}},
		{message.E("sym", "MSFT", "price", 200, "volume", 9), []message.SubID{2, 5}},
		{message.E("other", 1), []message.SubID{6}},
	}
	for _, m := range allMatchers() {
		for _, s := range subs {
			if err := Index(m, s); err != nil {
				t.Fatalf("%s: Add: %v", m.Name(), err)
			}
		}
		for _, tc := range cases {
			if got := m.Match(tc.e, nil); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s: Match(%v) = %v, want %v", m.Name(), tc.e, got, tc.want)
			}
		}
	}
}

func TestMatchNumericCrossKind(t *testing.T) {
	for _, m := range allMatchers() {
		s := message.NewSubscription(1, "c", message.Pred("x", message.OpEq, message.Int(4)))
		if err := Index(m, s); err != nil {
			t.Fatal(err)
		}
		if got := m.Match(message.E("x", 4.0), nil); len(got) != 1 {
			t.Errorf("%s: Float(4.0) should satisfy x = Int(4)", m.Name())
		}
		if got := m.Match(message.E("x", "4"), nil); len(got) != 0 {
			t.Errorf("%s: String(\"4\") must not satisfy x = Int(4)", m.Name())
		}
	}
}

func TestMatchMultiValuedAttribute(t *testing.T) {
	// After semantic expansion an event may carry several values for one
	// attribute; any instance may satisfy a predicate, but one predicate
	// must not be counted twice for the same subscription.
	for _, m := range allMatchers() {
		s := message.NewSubscription(1, "c",
			message.Pred("skill", message.OpEq, message.String("COBOL")),
			message.Pred("years", message.OpGe, message.Int(3)))
		if err := Index(m, s); err != nil {
			t.Fatal(err)
		}
		e := message.E("skill", "Java", "skill", "COBOL", "skill", "COBOL", "years", 5)
		if got := m.Match(e, nil); len(got) != 1 || got[0] != 1 {
			t.Errorf("%s: Match = %v, want [1]", m.Name(), got)
		}
		// Two pairs both satisfying different thresholds must not
		// double-count a single predicate either.
		e2 := message.E("years", 5, "years", 7)
		s2 := message.NewSubscription(2, "c",
			message.Pred("years", message.OpGe, message.Int(3)),
			message.Pred("missing", message.OpEq, message.Int(1)))
		if err := Index(m, s2); err != nil {
			t.Fatal(err)
		}
		if got := m.Match(e2, nil); len(got) != 0 {
			t.Errorf("%s: double-counted predicate produced false match: %v", m.Name(), got)
		}
	}
}

func TestDuplicatePredicatesInOneSubscription(t *testing.T) {
	for _, m := range allMatchers() {
		s := message.NewSubscription(1, "c",
			message.Pred("a", message.OpEq, message.Int(1)),
			message.Pred("a", message.OpEq, message.Int(1)), // duplicate
			message.Pred("b", message.OpEq, message.Int(2)))
		if err := Index(m, s); err != nil {
			t.Fatal(err)
		}
		if got := m.Match(message.E("a", 1, "b", 2), nil); len(got) != 1 {
			t.Errorf("%s: duplicated predicate broke completion count: %v", m.Name(), got)
		}
		if got := m.Match(message.E("b", 2), nil); len(got) != 0 {
			t.Errorf("%s: partially satisfied subscription matched: %v", m.Name(), got)
		}
	}
}

func TestSharedPredicateRemoval(t *testing.T) {
	// Two subscriptions share a predicate; removing one must not break
	// the other (counting matcher refcounts unique predicates).
	for _, m := range allMatchers() {
		shared := message.Pred("sym", message.OpEq, message.String("IBM"))
		if err := Index(m, message.NewSubscription(1, "c", shared)); err != nil {
			t.Fatal(err)
		}
		if err := Index(m, message.NewSubscription(2, "c", shared, message.Pred("p", message.OpGt, message.Int(5)))); err != nil {
			t.Fatal(err)
		}
		m.Remove(1)
		got := m.Match(message.E("sym", "IBM", "p", 10), nil)
		if len(got) != 1 || got[0] != 2 {
			t.Errorf("%s: Match = %v, want [2]", m.Name(), got)
		}
	}
}

func TestCountingStats(t *testing.T) {
	m := NewCounting()
	shared := message.Pred("sym", message.OpEq, message.String("IBM"))
	for i := 1; i <= 10; i++ {
		s := message.NewSubscription(message.SubID(i), "c", shared,
			message.Pred("p", message.OpGt, message.Int(int64(i))))
		if err := Index(m, s); err != nil {
			t.Fatal(err)
		}
	}
	// 1 shared equality + 10 distinct thresholds.
	if got := m.UniquePredicates(); got != 11 {
		t.Errorf("UniquePredicates = %d, want 11", got)
	}
	m.Remove(3)
	if got := m.UniquePredicates(); got != 10 {
		t.Errorf("UniquePredicates after removal = %d, want 10", got)
	}
}

// --- random workload helpers shared with the property tests ---

func randWord(r *rand.Rand, n int) string {
	letters := "abcdef"
	b := make([]byte, 1+r.Intn(n))
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func randValue(r *rand.Rand) message.Value {
	switch r.Intn(3) {
	case 0:
		return message.String(randWord(r, 3))
	case 1:
		return message.Int(int64(r.Intn(40)))
	default:
		return message.Float(float64(r.Intn(80)) / 2)
	}
}

func randPredicate(r *rand.Rand) message.Predicate {
	attr := randWord(r, 2)
	switch r.Intn(10) {
	case 0, 1, 2:
		return message.Pred(attr, message.OpEq, randValue(r))
	case 3:
		return message.Pred(attr, message.OpNe, randValue(r))
	case 4:
		return message.Pred(attr, message.OpLt, message.Int(int64(r.Intn(40))))
	case 5:
		return message.Pred(attr, message.OpGe, message.Int(int64(r.Intn(40))))
	case 6:
		return message.Exists(attr)
	case 7:
		return message.Pred(attr, message.OpNotExists, message.None())
	case 8:
		lo := int64(r.Intn(30))
		return message.Between(attr, message.Int(lo), message.Int(lo+int64(r.Intn(20))))
	default:
		return message.Pred(attr, message.OpPrefix, message.String(randWord(r, 2)))
	}
}

func randSubscription(r *rand.Rand, id message.SubID) message.Subscription {
	n := 1 + r.Intn(4)
	preds := make([]message.Predicate, n)
	for i := range preds {
		preds[i] = randPredicate(r)
	}
	return message.NewSubscription(id, "w", preds...)
}

func randEvent(r *rand.Rand) message.Event {
	n := 1 + r.Intn(6)
	e := message.Event{}
	for i := 0; i < n; i++ {
		e.Add(randWord(r, 2), randValue(r))
	}
	return e
}

// TestQuickMatchersAgree is the central substrate property: on random
// workloads every indexed matcher returns exactly the naive matcher's
// result set.
func TestQuickMatchersAgree(t *testing.T) {
	r := rand.New(rand.NewSource(2003))
	for trial := 0; trial < 25; trial++ {
		matchers := allMatchers()
		naive := matchers[0]
		nSubs := 50 + r.Intn(150)
		for i := 0; i < nSubs; i++ {
			s := randSubscription(r, message.SubID(i+1))
			for _, m := range matchers {
				if err := Index(m, s); err != nil {
					t.Fatalf("%s Add: %v", m.Name(), err)
				}
			}
		}
		for j := 0; j < 40; j++ {
			e := randEvent(r)
			want := naive.Match(e, nil)
			for _, m := range matchers[1:] {
				got := m.Match(e, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: %s disagrees with naive on %v:\n got %v\nwant %v",
						trial, m.Name(), e, got, want)
				}
			}
		}
	}
}

// TestQuickMatchersAgreeUnderChurn interleaves removals with matching.
func TestQuickMatchersAgreeUnderChurn(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	matchers := allMatchers()
	naive := matchers[0]
	live := make(map[message.SubID]bool)
	next := message.SubID(1)
	for step := 0; step < 600; step++ {
		switch {
		case len(live) == 0 || r.Intn(3) > 0:
			s := randSubscription(r, next)
			live[next] = true
			next++
			for _, m := range matchers {
				if err := Index(m, s); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
		default:
			// Remove a random live subscription.
			var victim message.SubID
			k := r.Intn(len(live))
			for id := range live {
				if k == 0 {
					victim = id
					break
				}
				k--
			}
			delete(live, victim)
			for _, m := range matchers {
				if !m.Remove(victim) {
					t.Fatalf("%s: Remove(%d) failed", m.Name(), victim)
				}
			}
		}
		if step%10 == 0 {
			e := randEvent(r)
			want := naive.Match(e, nil)
			for _, m := range matchers[1:] {
				if got := m.Match(e, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: %s disagrees on %v: got %v want %v", step, m.Name(), e, got, want)
				}
			}
			for _, m := range matchers {
				if m.Size() != len(live) {
					t.Fatalf("%s: Size = %d, want %d", m.Name(), m.Size(), len(live))
				}
			}
		}
	}
}

func TestMatchEmptyMatcher(t *testing.T) {
	for _, m := range allMatchers() {
		if got := m.Match(message.E("a", 1), nil); len(got) != 0 {
			t.Errorf("%s: empty matcher matched: %v", m.Name(), got)
		}
	}
}

func TestMatchDeterministicOrder(t *testing.T) {
	for _, m := range allMatchers() {
		for i := 20; i >= 1; i-- {
			s := message.NewSubscription(message.SubID(i), "c", message.Pred("a", message.OpEq, message.Int(1)))
			if err := Index(m, s); err != nil {
				t.Fatal(err)
			}
		}
		got := m.Match(message.E("a", 1), nil)
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("%s: result not in ascending order: %v", m.Name(), got)
			}
		}
		if len(got) != 20 {
			t.Fatalf("%s: want 20 matches, got %d", m.Name(), len(got))
		}
	}
}

func ExampleMatcher() {
	m := NewCounting()
	_ = Index(m, message.NewSubscription(1, "recruiter",
		message.Pred("university", message.OpEq, message.String("Toronto")),
		message.Pred("professional experience", message.OpGe, message.Int(4)),
	))
	fmt.Println(m.Match(message.E("university", "Toronto", "professional experience", 5), nil))
	fmt.Println(m.Match(message.E("school", "Toronto", "professional experience", 5), nil))
	// Output:
	// [1]
	// []
}
