// Handover demonstrates the §3 multi-transmitter extension: an occluder
// (someone walking through the room) periodically blocks the primary
// TX→headset path; a second ceiling transmitter plus make-before-break
// handover keeps the light flowing.
package main

import (
	"fmt"
	"log"
)

import "cyclops"

func main() {
	fmt.Println("60 s static-headset session; an occluder blocks the primary path")
	fmt.Println("for 10 s out of every 20 s.")
	fmt.Println()

	r, err := cyclops.ExtensionHandover(4)
	if err != nil {
		log.Fatalf("handover study: %v", err)
	}
	fmt.Print(r.Render())

	fmt.Println()
	fmt.Printf("handover recovered %.0f%% of the occluded time.\n",
		(r.TwoTX.LightFraction-r.SingleTX.LightFraction)/(1-r.SingleTX.LightFraction)*100)
	fmt.Println("(the §3 sketch, quantified — core.Run's RunOptions.Handover is the controller)")
}
