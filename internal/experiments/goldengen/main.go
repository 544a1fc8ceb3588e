// Command goldengen regenerates the seed trace files the equivalence tests
// compare against: every registry experiment at its pinned golden axes,
// rendered to <dir>/<name>.golden. Only rerun it when a change is
// *supposed* to alter the traces — the whole point of the files is to catch
// changes that alter them by accident.
//
// Usage: go run ./internal/experiments/goldengen <dir>
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"joinview/internal/experiments"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: goldengen <dir>")
		os.Exit(2)
	}
	dir := os.Args[1]
	for _, tc := range experiments.Registry {
		g, err := tc.GoldenGrid()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tc.Name, err)
			os.Exit(1)
		}
		if err := os.WriteFile(filepath.Join(dir, tc.Name+".golden"), []byte(g.Render()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("wrote", tc.Name)
	}
}
