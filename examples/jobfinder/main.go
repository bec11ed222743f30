// Jobfinder: the full demonstration scenario of paper §4 in one process —
// 30 companies subscribe with qualification requirements, 200 candidates
// publish resumes, and matches are delivered through the notification
// engine over a real TCP socket.
//
//	go run ./examples/jobfinder
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/notify"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/workload"
)

func main() {
	ont, err := ontology.Load(workload.JobsODL, ontology.Options{})
	if err != nil {
		log.Fatal(err)
	}
	engine := core.NewEngine(ont.Stage(semantic.FullConfig()))

	// A TCP sink plays the role of the companies' inboxes.
	var received atomic.Int64
	sink, err := notify.NewTCPSink("127.0.0.1:0", func(n notify.Notification) {
		received.Add(1)
		if received.Load() <= 3 {
			fmt.Printf("  notification → %s: %s\n", n.Subscriber, n.Event)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sink.Close()

	notifier, err := notify.NewEngine(notify.Config{Workers: 4}, notify.NewTCPTransport(0))
	if err != nil {
		log.Fatal(err)
	}
	defer notifier.Close()

	b := broker.New(engine, notifier)

	// Companies subscribe.
	jf := workload.NewJobFinder(2003)
	subs := jf.Recruiters(30)
	for _, s := range subs {
		if err := b.Register(broker.Client{
			Name:  s.Subscriber,
			Route: notify.Route{Transport: "tcp", Addr: sink.Addr()},
		}); err != nil {
			log.Fatal(err)
		}
		if _, err := b.Subscribe(s.Subscriber, s.Preds); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%d companies subscribed, e.g. %s\n\n", len(subs), subs[0])

	// Candidates publish resumes.
	resumes := jf.Resumes(200)
	matches := 0
	for _, r := range resumes {
		res, err := b.Publish(r)
		if err != nil {
			log.Fatal(err)
		}
		matches += len(res.Matches)
	}
	notifier.Drain(5 * time.Second)
	time.Sleep(50 * time.Millisecond) // let the sink catch the tail

	st := b.Stats()
	fmt.Printf("\npublished %d resumes: %d matches (%.2f per resume)\n",
		len(resumes), matches, float64(matches)/float64(len(resumes)))
	fmt.Printf("delivered %d notifications over TCP\n", received.Load())
	fmt.Printf("semantic stage: %d synonym rewrites, %d generalized pairs, %d mapped pairs\n",
		st.Engine.SynonymRewrites, st.Engine.HierarchyPairs, st.Engine.MappingPairs)

	// The punchline of the demo (§4): switch to syntactic mode and watch
	// the matches disappear — resumes say "school", subscriptions say
	// "university".
	if err := engine.SetMode(core.Syntactic); err != nil {
		log.Fatal(err)
	}
	synMatches := 0
	for _, r := range resumes {
		res, err := b.Publish(r)
		if err != nil {
			log.Fatal(err)
		}
		synMatches += len(res.Matches)
	}
	fmt.Printf("\nsyntactic mode on the same resumes: %d matches\n", synMatches)
}
