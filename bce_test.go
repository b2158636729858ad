package manhattan

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// hotLoops lists the functions whose loop bodies must compile without a
// bounds check: the per-agent column loops of the world step and the
// delta index sync. Each entry is the package directory, a space, and the
// receiver type and method.
var hotLoops = []string{
	"internal/mobility mrwpPop.StepRange",
	"internal/mobility pausedPop.StepRange",
	"internal/mobility rwpPop.StepRange",
	"internal/mobility walkPop.StepRange",
	"internal/mobility directionPop.StepRange",
	"internal/spatialindex Tiling.compareRange",
	"internal/spatialindex Index.updateImpl",
}

// boundsCheckAllowed lists the checks a hot loop keeps on purpose, keyed
// by function and the indexing expression at the check (a call stands for
// the checks of the callee inlined there), each with its reason. All of
// them index by data, not by the loop counter, so no re-slicing can prove
// them.
var boundsCheckAllowed = map[string]string{
	"internal/spatialindex Index.updateImpl: cellOf[id]":       "the tiled replay walks the mover list; ids are data",
	"internal/spatialindex Index.updateImpl: cells[id]":        "the tiled replay walks the mover list; ids are data",
	"internal/spatialindex Index.updateImpl: ix.noteMove(...)": "per-bucket counters and event bits are indexed by bucket ids",
	"internal/spatialindex Index.updateImpl: ix.moved[id]":     "the bail path unsets the moved flags of the mover list",
}

var bceFound = regexp.MustCompile(`^(\S+\.go):(\d+):(\d+): Found (IsInBounds|IsSliceInBounds)$`)

// TestHotLoopsBoundsCheckFree is the compile-time gate over the hot loops.
// It compiles their packages with the compiler's bounds-check report
// (-d=ssa/check_bce/debug=1), maps every reported check to the innermost
// loop holding it, and fails on any check inside the loop body of a
// hotLoops function that boundsCheckAllowed does not name. A loop that
// indexes several columns separately, instead of re-slicing them to one
// shared length, shows up here as a check per access. The build reuses
// the test binary's -tags, so each build variant gates its own code.
func TestHotLoopsBoundsCheckFree(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the gate compiles the hot packages and needs the go command: %v", err)
	}
	src := parseHotLoops(t)
	args := []string{"build"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" && s.Value != "" {
				args = append(args, "-tags", s.Value)
			}
		}
	}
	for _, dir := range src.dirs {
		args = append(args, "-gcflags=manhattanflood/"+dir+"=-d=ssa/check_bce/debug=1")
	}
	for _, dir := range src.dirs {
		args = append(args, "./"+dir)
	}
	out, err := exec.Command(goTool, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}

	used := map[string]bool{}
	for _, line := range bytes.Split(out, []byte("\n")) {
		m := bceFound.FindSubmatch(line)
		if m == nil {
			continue
		}
		file := filepath.ToSlash(filepath.Clean(string(m[1])))
		ln, _ := strconv.Atoi(string(m[2]))
		col, _ := strconv.Atoi(string(m[3]))
		fn, loopLine, expr := src.locate(file, ln, col)
		if fn == "" {
			continue
		}
		key := fn + ": " + expr
		if _, ok := boundsCheckAllowed[key]; ok {
			used[key] = true
			continue
		}
		t.Errorf("%s:%d:%d: %s on %s in the loop at line %d of %s", file, ln, col, m[4], expr, loopLine, fn)
	}
	for key := range boundsCheckAllowed {
		if !used[key] {
			t.Errorf("allowlisted check %q is no longer reported; drop it from boundsCheckAllowed", key)
		}
	}
}

// hotSource is the parsed source of the hotLoops functions.
type hotSource struct {
	fset  *token.FileSet
	dirs  []string
	src   map[string][]byte          // file -> contents
	funcs map[string][]*ast.FuncDecl // file -> hotLoops declarations in it
	names map[*ast.FuncDecl]string   // declaration -> hotLoops entry
}

// parseHotLoops parses the non-test files of every hotLoops package and
// fails if a listed function is missing, so a rename cannot drop it from
// the gate unnoticed.
func parseHotLoops(t *testing.T) *hotSource {
	t.Helper()
	s := &hotSource{
		fset:  token.NewFileSet(),
		src:   map[string][]byte{},
		funcs: map[string][]*ast.FuncDecl{},
		names: map[*ast.FuncDecl]string{},
	}
	want := map[string]bool{}
	for _, h := range hotLoops {
		want[h] = true
		dir, _, _ := strings.Cut(h, " ")
		if !slices.Contains(s.dirs, dir) {
			s.dirs = append(s.dirs, dir)
		}
	}
	slices.Sort(s.dirs)
	for _, dir := range s.dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			file = filepath.ToSlash(file)
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(s.fset, file, b, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.src[file] = b
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				if h := dir + " " + recvName(fd) + "." + fd.Name.Name; want[h] {
					delete(want, h)
					s.funcs[file] = append(s.funcs[file], fd)
					s.names[fd] = h
				}
			}
		}
	}
	for h := range want {
		t.Errorf("hot loop function %s not found; update hotLoops if it was renamed", h)
	}
	return s
}

// locate maps a reported check to the hotLoops function and innermost loop
// whose body holds it, and to the source of the indexing expression (or
// inlined call) at its position. fn is empty for a check outside every
// hot loop body.
func (s *hotSource) locate(file string, line, col int) (fn string, loopLine int, expr string) {
	for _, fd := range s.funcs[file] {
		tf := s.fset.File(fd.Pos())
		if line > tf.LineCount() {
			return "", 0, ""
		}
		pos := tf.LineStart(line) + token.Pos(col-1)
		if pos < fd.Body.Pos() || pos >= fd.Body.End() {
			continue
		}
		text := func(from, to token.Pos) string {
			return string(s.src[file][tf.Offset(from):tf.Offset(to)])
		}
		var loop ast.Node
		expr = "an unattributed expression"
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil || pos < n.Pos() || pos >= n.End() {
				return false
			}
			switch n := n.(type) {
			case *ast.ForStmt:
				if pos >= n.Body.Pos() {
					loop = n
				}
			case *ast.RangeStmt:
				if pos >= n.Body.Pos() {
					loop = n
				}
			case *ast.IndexExpr:
				if n.Lbrack == pos {
					expr = text(n.Pos(), n.End())
				}
			case *ast.SliceExpr:
				if n.Lbrack == pos {
					expr = text(n.Pos(), n.End())
				}
			case *ast.CallExpr:
				if n.Lparen == pos {
					expr = text(n.Fun.Pos(), n.Fun.End()) + "(...)"
				}
			}
			return true
		})
		if loop == nil {
			return "", 0, ""
		}
		return s.names[fd], s.fset.Position(loop.Pos()).Line, expr
	}
	return "", 0, ""
}

func recvName(fd *ast.FuncDecl) string {
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
