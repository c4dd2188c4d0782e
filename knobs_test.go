package eventdb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// knob is one row of the knob table (ROADMAP item 20): the tests that
// check the knob's behaviour, and its reason to exist, which begins with
// one of knobReasons.
type knob struct {
	tests []string
	why   string
}

// knobReasons are the reasons a knob may give to exist: an E23 workload
// passes it, a TestBudget case measures it, or it is one of the classes
// that need no workload of their own.
var knobReasons = []string{
	"E23 workload",
	"TestBudget case",
	"deployment setting",
	"safety bound",
	"test seam",
}

// knobTable has one row for every knob: each flag of cmd/eventdbd
// ("eventdbd -name") and cmd/eventgw ("eventgw -name"), each field of
// server.Config and core.Config ("server.Config.Name"), and each flag
// of handleHello's switch ("HELLO name").
var knobTable = map[string]knob{
	"eventdbd -addr":               {[]string{"TestCloseDrainsConnections"}, "E23 workload: every one, at 127.0.0.1:0"},
	"eventdbd -dir":                {[]string{"TestAckedPublishSurvivesProcessKill", "TestRegistrationsAcrossRestart"}, "E23 workload: durable"},
	"eventdbd -drop-on-full":       {[]string{"TestSlowConsumerOverflow", "TestValidate"}, "safety bound: a stalled subscriber cannot stall its publishers"},
	"eventdbd -max-conns":          {[]string{"TestMaxConns"}, "safety bound: connections"},
	"eventdbd -sub-buffer":         {[]string{"TestSlowConsumerOverflow"}, "safety bound: messages queued per connection"},
	"eventdbd -read-timeout":       {[]string{"TestReadTimeoutKillsMidCommandStall", "TestReadTimeoutKillsMidFrameStall"}, "safety bound: a half-sent command"},
	"eventdbd -write-timeout":      {[]string{"TestWriteTimeoutUnsticksWriter"}, "safety bound: a wedged reader of pushes"},
	"eventdbd -visibility":         {[]string{"TestVisibilityTimeoutRedelivery", "TestStaleReceiptEvictionUnparksConsumer"}, "safety bound: an unacked delivery comes back"},
	"eventdbd -queue-max-attempts": {[]string{"TestPoisonMessageDeadLettersInsteadOfLooping"}, "safety bound: a poison message dead-letters"},
	"eventdbd -queue-prefetch":     {[]string{"TestQSubPrefetchPausesDelivery", "TestQSubNoPauseBelowLimit"}, "safety bound: unacked deliveries per consumer"},
	"eventdbd -watch-interval":     {[]string{"TestWatchPatternAcrossStates"}, "deployment setting: WATCH poll cadence"},
	"eventdbd -follow":             {[]string{"TestFollowerReplicatesCommitsAndDDL", "TestValidate"}, "deployment setting: replication"},
	"eventdbd -rack-every":         {[]string{"TestRackEvery"}, "deployment setting: replication"},
	"eventdbd -promote-after":      {[]string{"TestAutoPromoteOnLeaderLoss"}, "deployment setting: replication"},
	"eventdbd -drain-timeout":      {[]string{"TestDrainTimeoutBoundsClose"}, "safety bound: shutdown"},
	"eventdbd -evict-after-drops":  {[]string{"TestSlowConsumerEviction", "TestValidate"}, "safety bound: a consumer that stopped reading"},
	"eventdbd -shed-memory-bytes":  {[]string{"TestLowPrioShedding", "TestAllocsHealthGates"}, "safety bound: heap watermark for lowprio publishers"},
	"eventdbd -rule":               {[]string{"TestAddRules"}, "deployment setting: rules installed at start"},

	"eventgw -addr":       {[]string{"TestPubAndStats"}, "deployment setting: listen address"},
	"eventgw -backend":    {[]string{"TestPubAndStats", "TestReadyz"}, "deployment setting: the eventdbd it fronts"},
	"eventgw -sub-buffer": {[]string{"TestWebSocketSubBuffer"}, "deployment setting: events buffered per WebSocket"},
	"eventgw -token":      {[]string{"TestAuth"}, "deployment setting: bearer auth"},
	"eventgw -token-file": {[]string{"TestReadTokenFile"}, "deployment setting: bearer auth"},

	"server.Config.MaxConns":        {[]string{"TestMaxConns"}, "safety bound: -max-conns"},
	"server.Config.SubBuffer":       {[]string{"TestSlowConsumerOverflow", "TestAllocsPush"}, "safety bound: -sub-buffer"},
	"server.Config.Overflow":        {[]string{"TestSlowConsumerOverflow"}, "safety bound: -drop-on-full"},
	"server.Config.ReadTimeout":     {[]string{"TestReadTimeoutKillsMidCommandStall", "TestReadTimeoutKillsMidFrameStall"}, "safety bound: -read-timeout"},
	"server.Config.WriteTimeout":    {[]string{"TestWriteTimeoutUnsticksWriter", "TestReaderBlockedInWriteIsReleased"}, "safety bound: -write-timeout"},
	"server.Config.DrainTimeout":    {[]string{"TestDrainTimeoutBoundsClose"}, "safety bound: -drain-timeout"},
	"server.Config.EvictAfterDrops": {[]string{"TestSlowConsumerEviction"}, "safety bound: -evict-after-drops"},
	"server.Config.Queue":           {[]string{"TestPoisonMessageDeadLettersInsteadOfLooping", "TestStaleReceiptEvictionUnparksConsumer"}, "safety bound: -visibility and -queue-max-attempts"},
	"server.Config.QueuePrefetch":   {[]string{"TestQSubPrefetchPausesDelivery"}, "safety bound: -queue-prefetch"},
	"server.Config.Promote":         {[]string{"TestPromoteAndRoleVerbs", "TestFailoverPromoteResumesDurableConsumer"}, "deployment setting: -follow's PROMOTE"},

	"core.Config.Dir":                  {[]string{"TestRegistrationsAcrossRestart"}, "E23 workload: durable (-dir)"},
	"core.Config.SyncEvery":            {[]string{"TestSyncEvery", "TestDegradedGatingAndRecover"}, "safety bound: fsync cadence, which no flag sets yet (ROADMAP item 1)"},
	"core.Config.FS":                   {[]string{"TestDegradedGatingAndRecover", "TestChaosDiskFaultDegradedRecover"}, "test seam: injected disk faults"},
	"core.Config.ShedMemoryBytes":      {[]string{"TestLowPrioShedding"}, "safety bound: -shed-memory-bytes"},
	"core.Config.ColumnarDisabled":     {[]string{"TestCompactDisabled"}, "TestBudget case: the registration budgets run without history"},
	"core.Config.ColumnarSealRows":     {[]string{"TestCompactVerb", "TestConcurrentSelects"}, "test seam: small segments"},
	"core.Config.ColumnarSealInterval": {[]string{"TestRestartLeavesDeadHistoryOnDisk"}, "test seam: a sealer that waits"},
	"core.Config.CEPAdvanceInterval":   {[]string{"TestPatternHorizonTicker"}, "test seam: a fast pattern clock"},
	"core.Config.WatchInterval":        {[]string{"TestWatchPatternAcrossStates"}, "deployment setting: -watch-interval"},

	"HELLO lowprio": {[]string{"TestLowPrioShedding", "TestHelloParkFlagEcho"}, "safety bound: -shed-memory-bytes sheds these publishers"},
}

// TestKnobTable fails on a knob with no row in knobTable, on a row that
// matches no knob, on a row without a test or a reason, and on a test
// name that no _test.go file of the module declares. The knobs are found
// syntactically: the first string argument of each flag.* call in the
// two commands, the fields of the two Config structs, and the string
// cases of handleHello's switch.
func TestKnobTable(t *testing.T) {
	knobs := make(map[string]bool)
	for _, cmd := range []string{"eventdbd", "eventgw"} {
		for _, f := range parseDir(t, filepath.Join("cmd", cmd)) {
			ast.Inspect(f, func(n ast.Node) bool {
				if name, ok := flagName(n); ok {
					knobs[cmd+" -"+name] = true
				}
				return true
			})
		}
	}
	for _, pkg := range []string{"server", "core"} {
		for _, f := range parseDir(t, filepath.Join("internal", pkg)) {
			for _, field := range configFields(f) {
				knobs[pkg+".Config."+field] = true
			}
		}
	}
	for _, f := range parseDir(t, filepath.Join("internal", "server")) {
		for _, flag := range helloFlags(f) {
			knobs["HELLO "+flag] = true
		}
	}
	if len(knobs) == 0 {
		t.Fatal("found no knobs")
	}

	declared := testFuncs(t)
	var problems []string
	for k := range knobs {
		if _, ok := knobTable[k]; !ok {
			problems = append(problems, "knob "+k+" has no row")
		}
	}
	classes := make(map[string]int)
	for k, row := range knobTable {
		if !knobs[k] {
			problems = append(problems, "row "+k+" matches no knob; delete it")
		}
		if len(row.tests) == 0 {
			problems = append(problems, "row "+k+" names no test")
		}
		for _, name := range row.tests {
			if !declared[name] {
				problems = append(problems, "row "+k+" names "+name+", which no test file declares")
			}
		}
		class := ""
		for _, r := range knobReasons {
			if strings.HasPrefix(row.why, r) {
				class = r
			}
		}
		if class == "" {
			problems = append(problems, "row "+k+" gives no reason that begins with one of "+strings.Join(knobReasons, ", "))
		}
		classes[class]++
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
	t.Logf("%d knobs by reason: %v", len(knobs), classes)
}

// parseDir parses the non-test Go files of one directory.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	return files
}

// flagName reports the flag a flag.* call defines: its first string
// argument (flag.Parse has none).
func flagName(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
		return "", false
	}
	for _, arg := range call.Args {
		if s, ok := stringLit(arg); ok {
			return s, true
		}
	}
	return "", false
}

// configFields returns the field names of a file's Config struct type.
func configFields(f *ast.File) []string {
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Config" {
			return true
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					names = append(names, name.Name)
				}
			}
		}
		return false
	})
	return names
}

// helloFlags returns the string cases of the switches in handleHello.
func helloFlags(f *ast.File) []string {
	var flags []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "handleHello" {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if s, ok := stringLit(e); ok {
						flags = append(flags, s)
					}
				}
			}
			return true
		})
	}
	return flags
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// testFuncs returns the names of the Test functions that the module's
// _test.go files declare (a nested module, such as bench/, is not this
// module).
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
