// Command bench drives svc from its own module, as the repository's
// benchmark module drives the serving packages.
package main

import (
	"fmt"

	"fixture/svc"
)

func main() {
	e := svc.New(svc.Presets["fast"]())
	fmt.Println(e.Run(), svc.Measure(e))
}
