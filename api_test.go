package wroofline

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedAllowlist names the exported internal/ functions and methods
// that no non-test file reaches, one "importpath.Func" or
// "importpath.Type.Method" per line ('#' starts a comment).
const unreachedAllowlist = "testdata/unreached_api.txt"

// interfaceMethods are method names the standard library calls through an
// interface (error, fmt.Stringer, json.Marshaler, http.Handler, io.Writer,
// sort.Interface, ...). A method with one of these names is reached without
// any selector naming it, so the scan never reports it.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "RoundTrip": true, "Header": true, "Write": true, "WriteHeader": true,
	"Flush": true, "Hijack": true, "Read": true, "ReadFrom": true, "WriteTo": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Set": true, "Get": true, "LogValue": true,
}

// TestUnreachedAPI guards against exported API that only tests reach. It
// parses every Go file of the repository (cmd/, examples/, wfbench/ and the
// tests included) with go/parser and lists each exported function and
// method declared in internal/ that no non-test file references. A
// reference is a package-qualified selector (pkg.Func) resolved through the
// file's imports, a bare identifier in the declaring package (registry maps
// and calls in the same file count; a function's mention of itself does
// not), or, for methods, any selector with the method's name — without type
// information the scan cannot tell receivers apart, so it errs towards
// "reached". Methods that satisfy standard-library interfaces, and methods
// named by an interface declared in this repository, are never reported.
//
// The list must equal the checked-in allowlist: a name that is not on it
// fails (delete the code, or give it a non-test caller), and so does an
// allowlisted name that gained a non-test caller or no longer exists
// (delete the line). The allowlist can therefore only shrink.
func TestUnreachedAPI(t *testing.T) {
	got, err := unreachedAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllowlist(unreachedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if !allowed[name] {
			t.Errorf("%s is exported but only tests reach it: delete it, give it a non-test caller, or unexport it", name)
		}
		delete(allowed, name)
	}
	var stale []string
	for name := range allowed {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s is on %s but is reached by non-test code or no longer exists: delete the line", name, unreachedAllowlist)
	}
}

// readAllowlist parses the allowlist file into a set.
func readAllowlist(file string) (map[string]bool, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		if line = strings.TrimSpace(line); line != "" {
			set[line] = true
		}
	}
	return set, sc.Err()
}

// apiDecl is one exported function or method declared in internal/.
type apiDecl struct {
	pkg  string // import path of the declaring package
	recv string // receiver type name; "" for a function
	name string
}

func (d apiDecl) String() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// unreachedAPI scans the module rooted at root and returns, sorted, every
// exported internal/ function and method no non-test file references.
func unreachedAPI(root string) ([]string, error) {
	const module = "wroofline"
	fset := token.NewFileSet()
	var decls []apiDecl
	refs := &refScanner{
		funcs:  make(map[string]bool),
		sels:   make(map[string]bool),
		ifaces: make(map[string]bool),
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		if strings.HasPrefix(pkg, module+"/internal/") {
			decls = append(decls, declsOf(f, pkg)...)
		}
		refs.scan(f, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range decls {
		reached := refs.funcs[d.pkg+"."+d.name]
		if d.recv != "" {
			reached = refs.sels[d.name] || interfaceMethods[d.name] || refs.ifaces[d.name]
		}
		if !reached {
			out = append(out, d.String())
		}
	}
	sort.Strings(out)
	return out, nil
}

// declsOf lists a file's exported functions and methods.
func declsOf(f *ast.File, pkg string) []apiDecl {
	var out []apiDecl
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		d := apiDecl{pkg: pkg, name: fd.Name.Name}
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			d.recv = recvName(fd.Recv.List[0].Type)
		}
		out = append(out, d)
	}
	return out
}

// recvName strips pointers and type parameters from a receiver type.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// refScanner accumulates the references of non-test files: funcs holds
// "importpath.Name" for package-qualified selectors and for bare
// identifiers in the file's own package, sels every other selector name,
// and ifaces the method names of interfaces declared in the scanned code.
type refScanner struct {
	funcs, sels, ifaces map[string]bool

	// Per-file state: the file's package, its imports by local name, and
	// the function being walked, whose mentions of itself do not count.
	pkg     string
	imports map[string]string
	self    string
}

// scan records one file's references.
func (r *refScanner) scan(f *ast.File, pkg string) {
	r.pkg = pkg
	r.imports = make(map[string]string)
	for _, imp := range f.Imports {
		ip, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(ip)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		r.imports[name] = ip
	}
	for _, decl := range f.Decls {
		r.self = ""
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			ast.Inspect(decl, r.visit)
			continue
		}
		// The declared name itself is not a reference.
		if fd.Recv == nil {
			r.self = fd.Name.Name
		}
		ast.Inspect(fd.Type, r.visit)
		if fd.Body != nil {
			ast.Inspect(fd.Body, r.visit)
		}
	}
}

// visit records n if it is a reference and reports whether to descend.
func (r *refScanner) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if ip, ok := r.imports[id.Name]; ok {
				r.funcs[ip+"."+x.Sel.Name] = true
				return false
			}
		}
		r.sels[x.Sel.Name] = true
		ast.Inspect(x.X, r.visit)
		return false
	case *ast.InterfaceType:
		for _, m := range x.Methods.List {
			for _, name := range m.Names {
				r.ifaces[name.Name] = true
			}
		}
	case *ast.Ident:
		if x.Name != r.self {
			r.funcs[r.pkg+"."+x.Name] = true
		}
	}
	return true
}
