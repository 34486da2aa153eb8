// Command app is the production caller of svc.Used.
package main

import "fixture/svc"

// box has a Size method of its own: the selector below spells the name of
// svc.Result.Size without calling it.
type box struct{}

func (box) Size() int { return 0 }

func main() { _ = svc.Used().N + box{}.Size() }
