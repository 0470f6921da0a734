// Forecast visualization: the paper's introduction motivates
// "simultaneous online visualization to comprehend the simulation
// output on-the-fly". This example runs the functional mini-WRF on a
// rotating (Coriolis) shallow-water parent with one nest, renders the
// evolving height field as terminal heatmaps, and — when -out is given
// — writes the forecast series in the library's binary format plus PGM
// images any viewer can open.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"nestwrf"
)

func main() {
	outDir := flag.String("out", "", "directory for forecast files (empty = terminal only)")
	flag.Parse()

	cfg := nestwrf.NewDomain("cyclone", 64, 64)
	cfg.AddChild("eye", 48, 48, 3, 24, 24)

	type snap struct {
		domain string
		step   int
		state  *nestwrf.ForecastState
	}
	fmt.Println("functional mini-WRF, rotating shallow water (64x64 parent, 48x48 nest)")
	var snaps []snap
	for _, steps := range []int{1, 4, 8} {
		res, err := nestwrf.RunFunctional(cfg, nestwrf.FunctionalOptions{
			Ranks:    16,
			Steps:    steps,
			Strategy: nestwrf.StrategyConcurrent,
			Params:   nestwrf.GeophysicalSolverParams(),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nparent height field after %d parent steps:\n", steps)
		fmt.Print(nestwrf.ForecastASCII(res.Parent, nestwrf.FieldHeight, 48))
		snaps = append(snaps,
			snap{"cyclone", steps, res.Parent},
			snap{"eye", steps, res.Nests[0]},
		)
	}

	if *outDir == "" {
		fmt.Println("\n(pass -out DIR to write the forecast series and PGM images)")
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	series := filepath.Join(*outDir, "forecast.nwrf")
	f, err := os.Create(series)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range snaps {
		if err := nestwrf.EncodeForecast(f, s.domain, s.step, s.state); err != nil {
			log.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	for _, s := range snaps {
		name := filepath.Join(*outDir, fmt.Sprintf("%s-step%02d.pgm", s.domain, s.step))
		img, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := nestwrf.WriteForecastPGM(img, s.state, nestwrf.FieldHeight); err != nil {
			log.Fatal(err)
		}
		if err := img.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nwrote %s and %d PGM images to %s\n", series, len(snaps), *outDir)

	// Round-trip check: read the series back.
	rf, err := os.Open(series)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	verified := 0
	for range snaps {
		if _, _, _, err := nestwrf.DecodeForecast(rf); err != nil {
			log.Fatal(err)
		}
		verified++
	}
	fmt.Printf("verified: %d snapshots decode cleanly (checksums OK)\n", verified)
}
