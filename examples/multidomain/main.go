// Multidomain: paper §3.2 — "the use of mapping functions allows a
// single pub/sub system to be used for multiple domains simultaneously
// and … it is possible to provide inter-domain mapping by simply adding
// additional functions."
//
// Two unrelated domain ontologies (job-finder and autos) are merged into
// one engine. A car dealer's subscription cannot match a job posting —
// until a single bridge mapping function relates "company car" perks to
// the autos domain.
//
//	go run ./examples/multidomain
package main

import (
	"fmt"
	"log"

	"stopss/internal/core"
	"stopss/internal/message"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/workload"
)

func main() {
	jobs, err := ontology.Load(workload.JobsODL, ontology.Options{})
	if err != nil {
		log.Fatal(err)
	}
	autos, err := ontology.Load(workload.AutosODL, ontology.Options{})
	if err != nil {
		log.Fatal(err)
	}
	merged, err := ontology.Merge(jobs, autos)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(merged.Summary())

	// One engine serves both domains simultaneously.
	engine := core.NewEngine(merged.Stage(semantic.FullConfig()))

	// A recruiter (jobs domain) and a car dealer (autos domain).
	recruiter := message.NewSubscription(1, "recruiter",
		message.Pred("university", message.OpEq, message.String("Toronto")))
	dealer := message.NewSubscription(2, "dealer",
		message.Pred("vehicle", message.OpEq, message.String("vehicle")))
	for _, s := range []message.Subscription{recruiter, dealer} {
		if err := engine.Subscribe(s); err != nil {
			log.Fatal(err)
		}
	}

	// A job posting that mentions a company-car perk.
	posting := message.E(
		"school", "Toronto",
		"position", "web developer",
		"perk", "company car",
	)

	res, err := engine.Publish(posting)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwithout bridge: matches = %v (recruiter only — domains are isolated)\n", res.Matches)

	// Install the inter-domain bridge: perk "company car" → vehicle
	// "car". The autos concept hierarchy then generalizes car → vehicle,
	// so the dealer's subscription matches too — one added mapping
	// function connects two ontologies that know nothing of each other.
	if err := merged.Mappings.Add(semantic.FuncOf{
		FName:     "bridge.company-car",
		FTriggers: []string{"perk"},
		FApply: func(e message.Event) []message.Pair {
			for _, v := range e.GetAll("perk") {
				if v.Kind() == message.KindString && v.Str() == "company car" {
					return []message.Pair{{Attr: "vehicle", Val: message.String("car")}}
				}
			}
			return nil
		},
	}); err != nil {
		log.Fatal(err)
	}

	res, err = engine.Publish(posting)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with bridge:    matches = %v (dealer now matches a job posting)\n", res.Matches)
	fmt.Printf("\nsaturation: %d pairs, %d mapping calls, %d hierarchy pairs\n",
		res.Expansion.Event.Len(), res.Expansion.MappingCalls, res.Expansion.HierarchyPairs)
}
