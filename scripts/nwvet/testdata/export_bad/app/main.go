// Command app is the production caller of svc.Used.
package main

import "fixture/svc"

func main() { _ = svc.Used().N }
