package semantic

import (
	"sync"
	"testing"

	"stopss/internal/message"
)

// TestReplaceConcurrentWithProcessEvent runs readers of one stage —
// publishers expanding events, the engine canonicalizing subscriptions,
// overlay routing reading the config — while Replace, the production
// swap path, alternates between two knowledge sets. Run with -race.
func TestReplaceConcurrentWithProcessEvent(t *testing.T) {
	synA := NewSynonyms()
	if err := synA.AddGroup("position", "job"); err != nil {
		t.Fatal(err)
	}
	hierA := NewHierarchy()
	if err := hierA.AddIsA("sedan", "car"); err != nil {
		t.Fatal(err)
	}
	synB := NewSynonyms()
	if err := synB.AddGroup("role", "job"); err != nil {
		t.Fatal(err)
	}
	hierB := NewHierarchy()
	if err := hierB.AddIsA("sedan", "vehicle"); err != nil {
		t.Fatal(err)
	}
	st := NewStage(synA, hierA, nil, FullConfig())

	ev := message.E("job", "dev", "sedan", "x")
	sub := message.NewSubscription(1, "c", message.Pred("job", message.OpEq, message.String("dev")))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := st.ProcessEvent(ev)
				if len(res.Events) == 0 {
					t.Error("ProcessEvent returned no events")
					return
				}
				out, _ := st.ProcessSubscription(sub)
				if a := out.Preds[0].Attr; a != "position" && a != "role" {
					t.Errorf("subscription canonicalized to %q, want position or role", a)
					return
				}
				_ = st.Config()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			st.Replace(synB, hierB, nil)
		} else {
			st.Replace(synA, hierA, nil)
		}
	}
	close(stop)
	wg.Wait()
}

// TestProcessEventSeesOneSnapshot: a ProcessEvent that begins before a
// Replace either sees the whole old knowledge or the whole new one —
// never a mix. With synonyms and hierarchy replaced together, a torn
// read would rewrite with the new synonyms but generalize with the old
// hierarchy (or vice versa).
func TestProcessEventSeesOneSnapshot(t *testing.T) {
	st := NewStage(nil, nil, nil, FullConfig())

	// New knowledge: "job" → "position" and position is-a role.
	syn := NewSynonyms()
	if err := syn.AddGroup("position", "job"); err != nil {
		t.Fatal(err)
	}
	hier := NewHierarchy()
	if err := hier.AddIsA("position", "role"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ev := message.E("job", "dev")
		for {
			select {
			case <-stop:
				return
			default:
			}
			res := st.ProcessEvent(ev)
			root := res.Events[0]
			rewritten := root.Has("position")
			generalized := false
			for _, dev := range res.Events {
				if dev.Has("role") {
					generalized = true
				}
			}
			// Old snapshot: neither. New snapshot: both (position is a
			// known concept, so the derived set contains a role pair).
			if rewritten != generalized {
				t.Errorf("torn snapshot: rewritten=%v generalized=%v", rewritten, generalized)
				return
			}
		}
	}()
	st.Replace(syn, hier, nil)
	close(stop)
	wg.Wait()

	res := st.ProcessEvent(message.E("job", "dev"))
	if !res.Events[0].Has("position") {
		t.Fatalf("after Replace, event not rewritten: %v", res.Events[0])
	}
}

func TestCloneIndependence(t *testing.T) {
	syn := NewSynonyms()
	if err := syn.AddGroup("position", "job"); err != nil {
		t.Fatal(err)
	}
	c := syn.Clone()
	if err := c.AddGroup("salary", "pay"); err != nil {
		t.Fatal(err)
	}
	if syn.Known("pay") {
		t.Fatal("clone mutation leaked into original synonyms")
	}
	if got, _ := c.Canonical("job"); got != "position" {
		t.Fatalf("clone lost existing group: job → %q", got)
	}

	h := NewHierarchy()
	if err := h.AddIsA("sedan", "car"); err != nil {
		t.Fatal(err)
	}
	hc := h.Clone()
	if err := hc.AddIsA("car", "vehicle"); err != nil {
		t.Fatal(err)
	}
	if h.Has("vehicle") {
		t.Fatal("clone mutation leaked into original hierarchy")
	}
	if !hc.IsA("sedan", "vehicle") {
		t.Fatal("clone lost transitive reachability")
	}

	m := NewMappings()
	pm := PairMap{MapName: "pm1", Attr: "a", Match: message.String("x"),
		Derived: []message.Pair{{Attr: "b", Val: message.String("y")}}}
	if err := m.Add(pm); err != nil {
		t.Fatal(err)
	}
	mc := m.Clone()
	if !mc.Remove("pm1") {
		t.Fatal("Remove on clone failed")
	}
	if !m.Has("pm1") {
		t.Fatal("Remove on clone leaked into original")
	}
	if mc.Has("pm1") || mc.Len() != 0 {
		t.Fatal("clone still has removed function")
	}
	if fns := mc.Applicable(message.E("a", "x")); len(fns) != 0 {
		t.Fatalf("removed function still applicable: %v", fns)
	}
}

func TestMappingsRemoveSharedTrigger(t *testing.T) {
	m := NewMappings()
	mk := func(name string) PairMap {
		return PairMap{MapName: name, Attr: "a", Match: message.String("x"),
			Derived: []message.Pair{{Attr: "b", Val: message.String(name)}}}
	}
	if err := m.Add(mk("one")); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(mk("two")); err != nil {
		t.Fatal(err)
	}
	if !m.Remove("one") {
		t.Fatal("Remove(one) failed")
	}
	if m.Remove("one") {
		t.Fatal("second Remove(one) succeeded")
	}
	fns := m.Applicable(message.E("a", "x"))
	if len(fns) != 1 || fns[0].Name() != "two" {
		t.Fatalf("Applicable after remove = %v, want [two]", fns)
	}
	if _, ok := m.Func("two"); !ok {
		t.Fatal("Func(two) missing")
	}
}
