package ecosystem

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func mapReduceAssembly(t *testing.T) *Assembly {
	t.Helper()
	cat := BigDataCatalog()
	arch := BigDataArchitecture()
	asm := &Assembly{Arch: arch, Components: []*Component{
		cat.Find("hive"), cat.Find("mapreduce"), cat.Find("hadoop-yarn"), cat.Find("hdfs"),
	}}
	if err := asm.Validate(); err != nil {
		t.Fatal(err)
	}
	return asm
}

func TestMapReduceStackValidates(t *testing.T) {
	asm := mapReduceAssembly(t)
	names := asm.Names()
	if names[0] != "hive" || names[3] != "hdfs" {
		t.Errorf("names=%v", names)
	}
}

func TestPregelStackValidates(t *testing.T) {
	// The second highlighted sub-ecosystem of Figure 1: Pregel on Giraph on
	// HDFS, with no HLL (the optional layer).
	cat := BigDataCatalog()
	asm := &Assembly{Arch: BigDataArchitecture(), Components: []*Component{
		nil, cat.Find("pregel"), cat.Find("giraph"), cat.Find("hdfs"),
	}}
	if err := asm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBrokenAssemblies(t *testing.T) {
	cat := BigDataCatalog()
	arch := BigDataArchitecture()

	// Unfilled required layer.
	asm := &Assembly{Arch: arch, Components: []*Component{nil, nil, cat.Find("hadoop-yarn"), cat.Find("hdfs")}}
	if err := asm.Validate(); !errors.Is(err, ErrLayerUnfilled) {
		t.Errorf("unfilled layer: %v", err)
	}

	// Component in the wrong layer.
	asm = &Assembly{Arch: arch, Components: []*Component{
		cat.Find("mapreduce"), cat.Find("hive"), cat.Find("hadoop-yarn"), cat.Find("hdfs"),
	}}
	if err := asm.Validate(); !errors.Is(err, ErrLayerMismatch) {
		t.Errorf("layer mismatch: %v", err)
	}

	// Dependency violation: hive (needs mapreduce-model) over pregel.
	asm = &Assembly{Arch: arch, Components: []*Component{
		cat.Find("hive"), cat.Find("pregel"), cat.Find("giraph"), cat.Find("hdfs"),
	}}
	if err := asm.Validate(); !errors.Is(err, ErrUnmetDependency) {
		t.Errorf("unmet dependency: %v", err)
	}

	// Shape mismatch.
	asm = &Assembly{Arch: arch, Components: []*Component{cat.Find("hdfs")}}
	if err := asm.Validate(); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestComposedNFRRules(t *testing.T) {
	asm := mapReduceAssembly(t)
	sheet := asm.ComposedNFR()
	// Latency adds: 500 + 1000 + 2000 + 50.
	if got := sheet[MetricLatencyMS]; got != 3550 {
		t.Errorf("latency=%v, want 3550", got)
	}
	// Throughput is the bottleneck: min(800, 1000, 1000, 2000) = 800.
	if got := sheet[MetricThroughput]; got != 800 {
		t.Errorf("throughput=%v, want 800", got)
	}
	// Availability multiplies.
	want := 0.999 * 0.9995 * 0.999 * 0.9999
	if got := sheet[MetricAvailability]; math.Abs(got-want) > 1e-12 {
		t.Errorf("availability=%v, want %v", got, want)
	}
	// Cost adds: 2 + 1 + 4 + 2 = 9.
	if got := sheet[MetricCostPerHour]; got != 9 {
		t.Errorf("cost=%v, want 9", got)
	}
}

func TestNavigateFindsValidAssemblies(t *testing.T) {
	cands, err := Navigate(BigDataArchitecture(), BigDataCatalog(), Requirements{
		Capabilities: []Capability{CapSQLLike},
		Weights:      map[Metric]float64{MetricThroughput: 1, MetricLatencyMS: 0.1},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if err := c.Assembly.Validate(); err != nil {
			t.Errorf("navigator returned invalid assembly: %v", err)
		}
	}
	// Results sorted by utility.
	for i := 1; i < len(cands); i++ {
		if cands[i].Utility > cands[i-1].Utility {
			t.Error("candidates not sorted by utility")
		}
	}
}

func TestNavigateHonorsHardConstraints(t *testing.T) {
	// Demand extreme availability: only stacks multiplying to ≥ threshold.
	cands, err := Navigate(BigDataArchitecture(), BigDataCatalog(), Requirements{
		Constraints: []Constraint{AtLeast(MetricAvailability, 0.997)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.NFR[MetricAvailability] < 0.997 {
			t.Errorf("constraint violated: availability=%v", c.NFR[MetricAvailability])
		}
	}
	// An impossible constraint yields ErrNoValidAssembly.
	_, err = Navigate(BigDataArchitecture(), BigDataCatalog(), Requirements{
		Constraints: []Constraint{AtMost(MetricLatencyMS, 1)},
	}, 0)
	if !errors.Is(err, ErrNoValidAssembly) {
		t.Errorf("impossible constraint: %v", err)
	}
}

func TestNavigateNilInputs(t *testing.T) {
	if _, err := Navigate(nil, nil, Requirements{}, 1); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestCatalogLookup(t *testing.T) {
	cat := BigDataCatalog()
	if cat.Len() < 20 {
		t.Errorf("Figure-1 catalog has %d components, want the figure's ~25", cat.Len())
	}
	if cat.Find("hdfs") == nil || cat.Find("nope") != nil {
		t.Error("Find broken")
	}
	if len(cat.Layer(LayerStorage)) < 5 {
		t.Errorf("storage layer candidates=%d", len(cat.Layer(LayerStorage)))
	}
}

func TestConstraintHelpers(t *testing.T) {
	c := AtLeast(MetricThroughput, 100)
	if c.Satisfied(99) || !c.Satisfied(100) {
		t.Error("AtLeast broken")
	}
	c = AtMost(MetricLatencyMS, 10)
	if c.Satisfied(11) || !c.Satisfied(10) {
		t.Error("AtMost broken")
	}
}

func TestRuleForAndDirection(t *testing.T) {
	if RuleFor(MetricLatencyMS) != ComposeSum || RuleFor(MetricAvailability) != ComposeProduct {
		t.Error("standard rules wrong")
	}
	if RuleFor(Metric("custom")) != ComposeMin {
		t.Error("unknown metrics must compose as min")
	}
	if HigherIsBetter(MetricLatencyMS) || !HigherIsBetter(MetricThroughput) {
		t.Error("directions wrong")
	}
}

// --- Figure/table consistency tests ---

func TestEvolutionGraphIsDAGWithMonotoneEras(t *testing.T) {
	nodes, edges := EvolutionGraph()
	era := make(map[string]int, len(nodes))
	for _, n := range nodes {
		if _, dup := era[n.Name]; dup {
			t.Fatalf("duplicate node %q", n.Name)
		}
		era[n.Name] = n.Era
	}
	adj := make(map[string][]string)
	indeg := make(map[string]int)
	for _, e := range edges {
		if _, ok := era[e.From]; !ok {
			t.Fatalf("edge from unknown node %q", e.From)
		}
		if _, ok := era[e.To]; !ok {
			t.Fatalf("edge to unknown node %q", e.To)
		}
		if era[e.From] >= era[e.To] {
			t.Errorf("edge %s→%s violates era order (%d→%d)", e.From, e.To, era[e.From], era[e.To])
		}
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	// Kahn's algorithm: all nodes must be sorted (acyclic).
	var queue []string
	for _, n := range nodes {
		if indeg[n.Name] == 0 {
			queue = append(queue, n.Name)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		seen++
		for _, u := range adj[v] {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	if seen != len(nodes) {
		t.Error("evolution graph has a cycle")
	}
	// MCS is the unique sink.
	for _, n := range nodes {
		if len(adj[n.Name]) == 0 && n.Name != "massivizing computer systems" {
			t.Errorf("unexpected sink %q", n.Name)
		}
	}
}

func TestDatacenterArchitectureShape(t *testing.T) {
	layers := DatacenterArchitecture()
	if len(layers) != 6 {
		t.Fatalf("layers=%d, want 5+1", len(layers))
	}
	withSub := 0
	for _, l := range layers {
		if l.Name == "" || l.Role == "" {
			t.Errorf("layer %d incomplete", l.Number)
		}
		if len(l.SubLayers) > 0 {
			withSub++
			if len(l.SubLayers) != 3 {
				t.Errorf("layer %s has %d sub-layers, want 3", l.Name, len(l.SubLayers))
			}
		}
	}
	if withSub != 2 {
		t.Errorf("%d layers refined into sub-layers, want the 2 closest to users", withSub)
	}
}

func TestGamingArchitectureFourFunctions(t *testing.T) {
	funcs := GamingArchitecture()
	if len(funcs) != 4 {
		t.Fatalf("functions=%d, want 4", len(funcs))
	}
	want := map[string]bool{
		"virtual world": true, "gaming analytics": true,
		"procedural content generation": true, "social meta-gaming": true,
	}
	for _, f := range funcs {
		if !want[f.Name] {
			t.Errorf("unexpected function %q", f.Name)
		}
		if len(f.Topics) < 3 {
			t.Errorf("function %q lists %d topics", f.Name, len(f.Topics))
		}
	}
}

func TestFaaSArchitectureMapsToFigure3(t *testing.T) {
	layers := FaaSArchitecture()
	if len(layers) != 4 {
		t.Fatalf("FaaS layers=%d, want 4", len(layers))
	}
	dc := DatacenterArchitecture()
	valid := map[int]bool{}
	for _, l := range dc {
		valid[l.Number] = true
	}
	last := 5
	for _, l := range layers {
		if !valid[l.Fig3Layer] {
			t.Errorf("FaaS layer %s maps to unknown Figure-3 layer %d", l.Name, l.Fig3Layer)
		}
		if l.Fig3Layer > last {
			t.Error("FaaS→Fig3 mapping not monotone")
		}
		last = l.Fig3Layer
	}
}

func TestTable1Sections(t *testing.T) {
	rows := Table1Overview()
	sections := map[string]int{}
	for _, r := range rows {
		sections[r.Section]++
		if len(r.Values) == 0 {
			t.Errorf("row %q has no values", r.Topic)
		}
	}
	for _, s := range []string{"Who?", "What?", "How?", "Related"} {
		if sections[s] == 0 {
			t.Errorf("missing section %q", s)
		}
	}
}

func TestTable2TenPrinciples(t *testing.T) {
	ps := Table2Principles()
	if len(ps) != 10 {
		t.Fatalf("principles=%d, want 10", len(ps))
	}
	counts := map[PrincipleType]int{}
	for i, p := range ps {
		want := "P" + itoa(i+1)
		if p.ID != want {
			t.Errorf("principle %d id=%s, want %s", i, p.ID, want)
		}
		counts[p.Type]++
	}
	// Table 2: P1–P5 systems, P6–P7 peopleware, P8–P10 methodology.
	if counts[TypeSystems] != 5 || counts[TypePeopleware] != 2 || counts[TypeMethodology] != 3 {
		t.Errorf("type distribution %v", counts)
	}
}

func TestTable3TwentyChallengesLinkToRealPrinciples(t *testing.T) {
	cs := Table3Challenges()
	if len(cs) != 20 {
		t.Fatalf("challenges=%d, want 20", len(cs))
	}
	known := map[string]bool{}
	for _, p := range Table2Principles() {
		known[p.ID] = true
	}
	cited := map[string]bool{}
	for i, c := range cs {
		if want := "C" + itoa(i+1); c.ID != want {
			t.Errorf("challenge %d id=%s, want %s", i, c.ID, want)
		}
		if len(c.Principles) == 0 {
			t.Errorf("%s cites no principles", c.ID)
		}
		for _, p := range c.Principles {
			if !known[p] {
				t.Errorf("%s cites unknown principle %q", c.ID, p)
			}
			cited[p] = true
		}
	}
	// Every principle is exercised by at least one challenge.
	for p := range known {
		if !cited[p] {
			t.Errorf("principle %s is cited by no challenge", p)
		}
	}
}

func TestTable4SixUseCasesSplitEndoExo(t *testing.T) {
	ucs := Table4UseCases()
	if len(ucs) != 6 {
		t.Fatalf("use cases=%d, want 6", len(ucs))
	}
	endo := 0
	for _, u := range ucs {
		if u.Endogenous {
			endo++
		}
		if !strings.HasPrefix(u.Section, "6.") {
			t.Errorf("use case %q has section %q", u.Description, u.Section)
		}
	}
	if endo != 3 {
		t.Errorf("endogenous=%d, want 3", endo)
	}
}

func TestTable5AcronymSetsAreLegal(t *testing.T) {
	rows := Table5FieldComparison()
	if len(rows) != 6 {
		t.Fatalf("rows=%d, want 6", len(rows))
	}
	inAlphabet := func(s, alphabet string) bool {
		for _, c := range s {
			if !strings.ContainsRune(alphabet, c) {
				return false
			}
		}
		return true
	}
	envisioned := 0
	for _, r := range rows {
		if !inAlphabet(r.Objectives, ObjectivesAlphabet) {
			t.Errorf("%s: objectives %q outside %q", r.Field, r.Objectives, ObjectivesAlphabet)
		}
		if !inAlphabet(r.Methodology, MethodologyAlphabet) {
			t.Errorf("%s: methodology %q outside %q", r.Field, r.Methodology, MethodologyAlphabet)
		}
		if !inAlphabet(r.Character, CharacterAlphabet) {
			t.Errorf("%s: character %q outside %q", r.Field, r.Character, CharacterAlphabet)
		}
		if r.Envisioned {
			envisioned++
		}
	}
	if envisioned != 1 || !rows[5].Envisioned {
		t.Error("exactly the MCS row must be envisioned")
	}
	// MCS is the only row with all three objectives (the paper's
	// distinguishing claim versus Systems Biology, §7.3).
	for _, r := range rows[:5] {
		if r.Objectives == "DES" {
			t.Errorf("%s claims DES objectives; only MCS should", r.Field)
		}
	}
	if rows[5].Objectives != "DES" {
		t.Error("MCS row must have objectives DES")
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func BenchmarkNavigateBigDataCatalog(b *testing.B) {
	arch := BigDataArchitecture()
	cat := BigDataCatalog()
	req := Requirements{
		Capabilities: []Capability{CapSQLLike},
		Constraints:  []Constraint{AtLeast(MetricAvailability, 0.99)},
		Weights:      map[Metric]float64{MetricThroughput: 1, MetricCostPerHour: 10},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Navigate(arch, cat, req, 3); err != nil {
			b.Fatal(err)
		}
	}
}
