// Quickstart: the paper's §1 example in thirty lines — a subscription
// and a publication that share no syntax but must match semantically.
//
//	go run ./examples/quickstart
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
	// 1. Load the job-finder domain ontology (synonyms, concept
	//    hierarchy and mapping functions) and build the engine.
	ont, err := ontology.Load(workload.JobsODL, ontology.Options{})
	if err != nil {
		log.Fatal(err)
	}
	engine := core.NewEngine(ont.Stage(semantic.FullConfig()))

	// 2. A recruiter subscribes — paper §1:
	//    S: (university = Toronto) ∧ (degree = PhD) ∧ (professional experience ≥ 4)
	sub := message.NewSubscription(1, "recruiter",
		message.Pred("university", message.OpEq, message.String("Toronto")),
		message.Pred("degree", message.OpEq, message.String("PhD")),
		message.Pred("professional experience", message.OpGe, message.Int(4)),
	)
	if err := engine.Subscribe(sub); err != nil {
		log.Fatal(err)
	}

	// 3. A candidate publishes a resume — paper §1:
	//    E: (school, Toronto)(degree, PhD)(work experience, true)(graduation year, 1990)
	resume := message.E(
		"school", "Toronto",
		"degree", "PhD",
		"work experience", true,
		"graduation year", 1990,
	)

	// 4. Publish in semantic mode: synonyms map school→university, the
	//    mapping function derives professional experience = 2003−1990.
	res, err := engine.Publish(resume)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subscription: %s\n", sub)
	fmt.Printf("publication:  %s\n\n", resume)
	fmt.Printf("semantic mode:  matches = %v (saturated event %s)\n",
		res.Matches, res.Expansion.Event)

	// 5. The same publication in syntactic mode finds nothing — this is
	//    exactly the gap the paper opens with.
	if err := engine.SetMode(core.Syntactic); err != nil {
		log.Fatal(err)
	}
	res, err = engine.Publish(resume)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("syntactic mode: matches = %v\n", res.Matches)
}
