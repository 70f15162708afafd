// Command plot renders a design as SVG: optionally placed first, with a
// congestion heat underlay (Fig. 1 style) and the selected PG rails
// (Fig. 4 style).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	nmplace "repro"
	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/route"
	"repro/internal/synth"
)

func main() {
	design := flag.String("design", "fft_b", "design name")
	mode := flag.String("mode", "xplace", "placer to run first: none | xplace | xplace-route | ours")
	out := flag.String("o", "placement.svg", "output SVG path")
	cells := flag.Bool("cells", true, "draw cells")
	rails := flag.Bool("rails", false, "draw selected PG rails")
	heat := flag.Bool("heat", true, "draw congestion heat underlay")
	heatPNG := flag.String("heatpng", "", "also write the congestion grid as a standalone PNG heatmap (same renderer as the dashboard)")
	flag.Parse()

	d, err := synth.Generate(*design)
	if err != nil {
		log.Fatal(err)
	}
	if *mode != "none" {
		// The techniques only switch inside ModeOurs; the other modes ignore them.
		m, err := core.ParseMode(*mode)
		if err == nil {
			_, err = core.Place(d, core.Options{Mode: m, Tech: core.AllTechniques()})
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	opt := plot.Options{DrawCells: *cells, DrawRails: *rails}
	if *rails {
		opt.Selected = nmplace.SelectPGRails(d)
	}
	if *heat || *heatPNG != "" {
		g := route.NewGrid(d, core.DefaultGridHint(len(d.Cells)))
		res := route.NewRouter(d, g).Route()
		if *heat {
			opt.Congestion = res.Congestion
			opt.NX, opt.NY = g.NX, g.NY
		}
		if *heatPNG != "" {
			pf, err := os.Create(*heatPNG)
			if err != nil {
				log.Fatal(err)
			}
			if err := plot.WriteHeatmapPNG(pf, res.Congestion, g.NX, g.NY, 8); err != nil {
				log.Fatal(err)
			}
			if err := pf.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *heatPNG)
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := plot.SVG(f, d, opt); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
