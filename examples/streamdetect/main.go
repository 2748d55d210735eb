// Stream detect: the deployable form of EDDIE. Instead of collecting a
// whole capture and analyzing it after the fact, a Detector consumes raw
// receiver samples as they arrive — the way the paper's envisioned
// low-cost monitoring appliance (antenna + STFT ASIC + small CPU) would.
//
// The example simulates a device that is clean for a while, then gets
// infected mid-stream, and shows the detector raising alerts online.
//
//	go run ./examples/streamdetect
package main

import (
	"fmt"
	"log"

	"eddie"
)

func main() {
	w, err := eddie.WorkloadByName("rijndael")
	if err != nil {
		log.Fatal(err)
	}
	cfg := eddie.IoTPipeline()

	fmt.Println("training rijndael on 10 clean executions...")
	model, machine, err := eddie.Train(w, cfg, 10, eddie.DefaultTrainConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Persist + reload, as a deployed monitor would (train once in the
	// lab, ship the model to the appliance).
	const modelPath = "/tmp/eddie-rijndael-model.json"
	if err := eddie.SaveModel(model, modelPath); err != nil {
		log.Fatal(err)
	}
	model, err = eddie.LoadModel(modelPath, machine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("model saved and reloaded from", modelPath)

	detector, err := eddie.NewDetector(model, cfg, eddie.DefaultMonitorConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Simulate the RF front end delivering sample batches: first from a
	// clean execution, then from an infected one.
	clean, err := eddie.CollectRun(w, machine, cfg, 900, nil)
	if err != nil {
		log.Fatal(err)
	}
	attack := eddie.NewInLoopInjector(machine, 1, 8, 4, 1.0, 5)
	infected, err := eddie.CollectRun(w, machine, cfg, 901, attack)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("attack in second capture:", attack.Description())

	const batch = 4096 // samples per front-end transfer
	alerts := 0
	feed := func(name string, signal []float64) {
		fmt.Printf("--- streaming %s capture (%d samples, %d-sample batches)\n",
			name, len(signal), batch)
		for off := 0; off < len(signal); off += batch {
			end := off + batch
			if end > len(signal) {
				end = len(signal)
			}
			for _, r := range detector.Feed(signal[off:end]) {
				alerts++
				fmt.Printf("    ALERT %d at t=%.2f ms (window %d)\n",
					alerts, r.TimeSec*1e3, r.Window)
			}
		}
	}
	feed("clean", clean.Signal)
	cleanAlerts := alerts
	feed("infected", infected.Signal)

	fmt.Printf("\nprocessed %d windows total; %d alerts during the clean capture, %d during the infected one\n",
		detector.Windows(), cleanAlerts, alerts-cleanAlerts)
}
