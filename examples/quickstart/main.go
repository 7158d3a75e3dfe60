// Quickstart: run one headline experiment from each of the paper's three
// Table 2 shifts and print the findings.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"repro/internal/core"
)

func main() {
	fmt.Println("arch21 quickstart — three headline reproductions")
	fmt.Println()
	for _, id := range []string{"E3", "E4", "E9"} {
		e, ok := core.ByID(id)
		if !ok {
			panic("experiment missing: " + id)
		}
		res := e.Run(context.Background())
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("paper claim: %s\n\n", e.PaperClaim)
		fmt.Println(res.Render())
	}
	fmt.Printf("Run `go run ./cmd/arch21 list` to see all %d experiments.\n", len(core.Registry()))
}
