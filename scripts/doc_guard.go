//go:build ignore

// doc_guard fails if any package under internal/ (or cmd/) lacks a
// package-level doc comment — the documentation layer's enforcement
// hook: every package must say which part of the paper it reproduces
// and, where segment wires cross its boundary, who owns the
// reference. Packages that sit above the wire layer and drive route
// changes (listed in ownershipRequired) must additionally spell out
// their ownership rules in the package comment, so a reader never has
// to reverse-engineer who releases what. It also fails if a package
// under internal/ is imported by no non-test file outside itself: a
// package that nothing reaches is dead code, however well documented.
// Run from the repository root:
//
//	go run scripts/doc_guard.go
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// ownershipRequired lists packages whose package comment must contain
// an explicit ownership statement (a paragraph mentioning
// "Ownership"): control-plane packages that cause wires to move
// without ever holding one.
var ownershipRequired = map[string]bool{
	filepath.Join("internal", "balancer"): true,
}

func main() {
	var bad, badOwn []string
	for _, root := range []string{"internal", "cmd"} {
		dirs, err := packageDirs(root)
		if err != nil {
			fatal("walking %s: %v", root, err)
		}
		for _, dir := range dirs {
			doc, err := packageComment(dir)
			if err != nil {
				fatal("parsing %s: %v", dir, err)
			}
			if strings.TrimSpace(doc) == "" {
				bad = append(bad, dir)
				continue
			}
			if ownershipRequired[dir] && !strings.Contains(doc, "Ownership") {
				badOwn = append(badOwn, dir)
			}
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "doc_guard: %d package(s) lack a package doc comment:\n", len(bad))
		for _, dir := range bad {
			fmt.Fprintf(os.Stderr, "  %s\n", dir)
		}
	}
	if len(badOwn) > 0 {
		fmt.Fprintf(os.Stderr, "doc_guard: %d package(s) lack the required Ownership statement in their package comment:\n", len(badOwn))
		for _, dir := range badOwn {
			fmt.Fprintf(os.Stderr, "  %s\n", dir)
		}
	}
	unreached, err := unreachedPackages()
	if err != nil {
		fatal("scanning imports: %v", err)
	}
	if len(unreached) > 0 {
		fmt.Fprintf(os.Stderr, "doc_guard: %d internal package(s) imported by no non-test file outside themselves:\n", len(unreached))
		for _, dir := range unreached {
			fmt.Fprintf(os.Stderr, "  %s\n", dir)
		}
	}
	if len(bad) > 0 || len(badOwn) > 0 || len(unreached) > 0 {
		os.Exit(1)
	}
	fmt.Println("doc_guard: every package has a package doc comment (and ownership rules where required), and every internal package is imported")
}

// unreachedPackages returns the internal/ package directories that no
// non-test .go file in another directory of the repository imports
// (the module path is "repro", so internal/x is "repro/internal/x").
func unreachedPackages() ([]string, error) {
	imported := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		from := "repro/" + filepath.ToSlash(filepath.Dir(path))
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p != from {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs("internal")
	if err != nil {
		return nil, err
	}
	var out []string
	for _, dir := range dirs {
		if !imported["repro/"+filepath.ToSlash(dir)] {
			out = append(out, dir)
		}
	}
	return out, nil
}

// packageDirs returns every directory under root that contains at
// least one non-test .go file.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// packageComment returns the first non-empty doc comment on any
// non-test file's package clause in dir (the standard "// Package x
// ..." position; build-tagged files like the scripts count too).
func packageComment(dir string) (string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				return f.Doc.Text(), nil
			}
		}
	}
	return "", nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "doc_guard: "+format+"\n", args...)
	os.Exit(1)
}
