// Command adasense-train trains the shared activity classifier on a
// synthetic corpus spanning the four Pareto sensor configurations and
// saves it as a versioned model container (feature layout + compact
// float32 weights) that adasense.LoadSystem reads back.
//
// Usage:
//
//	adasense-train -out model.bin [-windows 7300] [-hidden 32] [-epochs 60]
//	               [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"adasense"
)

func main() {
	out := flag.String("out", "adasense-model.bin", "output model path")
	windows := flag.Int("windows", 7300, "training corpus size (windows)")
	hidden := flag.Int("hidden", 32, "hidden layer width")
	epochs := flag.Int("epochs", 60, "training epochs")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	if err := run(*out, *windows, *hidden, *epochs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "adasense-train:", err)
		os.Exit(1)
	}
}

func run(out string, windows, hidden, epochs int, seed uint64) error {
	fmt.Fprintf(os.Stderr, "training on %d windows across %d configurations...\n",
		windows, len(adasense.ParetoStates()))
	sys, acc, err := adasense.TrainSystem(adasense.TrainingConfig{
		Windows: windows,
		Hidden:  hidden,
		Epochs:  epochs,
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sys.Save(f); err != nil {
		return err
	}
	fmt.Printf("model: %s (versioned container)\n", out)
	fmt.Printf("held-out accuracy: %.2f%%\n", 100*acc)
	fmt.Printf("classifier size:   %d bytes (float32)\n", sys.Network.WeightBytes(4))
	return f.Close()
}
