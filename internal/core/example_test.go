package core_test

import (
	"fmt"

	"stopss/internal/core"
	"stopss/internal/message"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/workload"
)

// ExampleEngine runs the paper's opening example through the engine in
// both modes.
func ExampleEngine() {
	ont, _ := ontology.Load(workload.JobsODL, ontology.Options{})
	engine := core.NewEngine(ont.Stage(semantic.FullConfig()))

	_ = engine.Subscribe(message.NewSubscription(1, "recruiter",
		message.Pred("university", message.OpEq, message.String("Toronto")),
		message.Pred("degree", message.OpEq, message.String("PhD")),
		message.Pred("professional experience", message.OpGe, message.Int(4)),
	))

	resume := message.E("school", "Toronto", "degree", "PhD",
		"work experience", true, "graduation year", 1990)

	res, _ := engine.Publish(resume)
	fmt.Println("semantic: ", res.Matches)

	_ = engine.SetMode(core.Syntactic)
	res, _ = engine.Publish(resume)
	fmt.Println("syntactic:", res.Matches)
	// Output:
	// semantic:  [1]
	// syntactic: []
}

// ExampleEngine_Explain traces why the match happened: each predicate's
// witness and the rule that put it into the saturated event.
func ExampleEngine_Explain() {
	ont, _ := ontology.Load(workload.JobsODL, ontology.Options{})
	engine := core.NewEngine(ont.Stage(semantic.FullConfig()))
	_ = engine.Subscribe(message.NewSubscription(1, "recruiter",
		message.Pred("university", message.OpEq, message.String("Toronto")),
		message.Pred("degree", message.OpEq, message.String("graduate degree")),
		message.Pred("professional experience", message.OpGe, message.Int(4)),
		message.Pred("position", message.OpEq, message.String("mainframe developer"))))

	x, _ := engine.Explain(1, message.E("school", "Toronto", "degree", "PhD",
		"graduation year", 1990, "position", "mainframe developer"))
	fmt.Print(x)
	// Output:
	// MATCH — subscription 1 (recruiter)
	//   ✓ (university = Toronto) — by (university, Toronto), DERIVED by the semantic stage (synonym)
	//   ✓ (degree = graduate degree) — by (degree, graduate degree), DERIVED by the semantic stage (hierarchy)
	//   ✓ (professional experience >= 4) — by (professional experience, 13), DERIVED by the semantic stage (mapping:experience_from_graduation)
	//   ✓ (position = mainframe developer) — by (position, mainframe developer) from the original publication
}
