package main

import (
	"fmt"
	"runtime"
	"sync"

	"stopss/internal/core"
	"stopss/internal/matching"
	"stopss/internal/message"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/sublang"
	"stopss/internal/workload"
)

// loadOntology compiles the scenario's ontology the way stopss-server
// does.
func (sc *Scenario) loadOntology() (*ontology.Ontology, error) {
	src := sc.ODL
	if src == "" {
		src = workload.JobsODL
	}
	return ontology.Load(src, ontology.Options{})
}

// solve fills in every event's expected subscriptions with a reference
// engine that shares nothing with the server's fast paths: the naive
// matcher, no expansion cache, fed the same texts the server will parse.
// The naive matcher scans every subscription for every derived event, so
// the distinct events are split over one engine per CPU.
func (sc *Scenario) solve() error {
	ont, err := sc.loadOntology()
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	subs := make([]message.Subscription, len(sc.Subs))
	for i, s := range sc.Subs {
		preds, err := sublang.ParseSubscription(s.Text)
		if err != nil {
			return fmt.Errorf("oracle: subscription %d %q: %w", i, s.Text, err)
		}
		subs[i] = message.NewSubscription(message.SubID(i+1), "", preds...)
	}
	// Hot-pool events repeat; solve each distinct text once.
	first := make(map[string]int) // text → first event with it
	var distinct []int
	for i, e := range sc.Events {
		if _, ok := first[e.Text]; !ok {
			first[e.Text] = i
			distinct = append(distinct, i)
		}
	}

	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = sc.solveShare(ont, subs, distinct, w, workers)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range sc.Events {
		sc.Events[i].Expect = sc.Events[first[sc.Events[i].Text]].Expect
	}
	return nil
}

// solveShare solves every workers-th distinct event, starting at w, on
// an engine of its own.
func (sc *Scenario) solveShare(ont *ontology.Ontology, subs []message.Subscription, distinct []int, w, workers int) error {
	m, err := matching.New("naive")
	if err != nil {
		return err
	}
	eng := core.NewEngine(ont.Stage(semantic.FullConfig()), core.WithMatcher(m), core.WithExpansionCache(0))
	for i, s := range subs {
		if err := eng.Subscribe(s); err != nil {
			return fmt.Errorf("oracle: subscription %d %q: %w", i, sc.Subs[i].Text, err)
		}
	}
	for k := w; k < len(distinct); k += workers {
		e := &sc.Events[distinct[k]]
		ev, err := sublang.ParseEvent(e.Text)
		if err != nil {
			return fmt.Errorf("oracle: event %q: %w", e.Text, err)
		}
		res, err := eng.Publish(ev)
		if err != nil {
			return fmt.Errorf("oracle: event %q: %w", e.Text, err)
		}
		e.Expect = make([]int32, len(res.Matches))
		for j, id := range res.Matches {
			e.Expect[j] = int32(id) - 1
		}
	}
	return nil
}
