package emsim

// The small signal-processing kernel the pillbox-mode test needs: a
// radix-2 FFT and a peak-frequency estimator, used to verify that the
// FDTD substrate actually rings at the cavity's physical eigenfrequency
// (the paper's simulations exist to find "the eigenmodes in extremely
// large and complex 3D electromagnetic structures").

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. The length must be a power of two.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// PowerSpectrum returns |FFT|^2 of a real signal after removing its
// mean and applying a Hann window, with the signal zero-padded to the
// next power of two. Only the positive-frequency half is returned.
func PowerSpectrum(signal []float64) ([]float64, error) {
	if len(signal) < 4 {
		return nil, fmt.Errorf("dsp: signal too short (%d samples)", len(signal))
	}
	n := 1
	for n < len(signal) {
		n <<= 1
	}
	var mean float64
	for _, v := range signal {
		mean += v
	}
	mean /= float64(len(signal))

	x := make([]complex128, n)
	for i, v := range signal {
		// Hann window against spectral leakage.
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(len(signal)-1)))
		x[i] = complex((v-mean)*w, 0)
	}
	if err := FFT(x); err != nil {
		return nil, err
	}
	half := n / 2
	out := make([]float64, half)
	for i := 0; i < half; i++ {
		out[i] = real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	return out, nil
}

// PeakFrequency estimates the dominant angular frequency of a real
// signal sampled at interval dt, using a parabolic interpolation of
// the spectral peak for sub-bin resolution. The DC bin is excluded.
func PeakFrequency(signal []float64, dt float64) (float64, error) {
	if dt <= 0 {
		return 0, fmt.Errorf("dsp: sample interval %g must be positive", dt)
	}
	ps, err := PowerSpectrum(signal)
	if err != nil {
		return 0, err
	}
	// Find the largest non-DC bin.
	best := 1
	for i := 2; i < len(ps); i++ {
		if ps[i] > ps[best] {
			best = i
		}
	}
	if ps[best] == 0 {
		return 0, fmt.Errorf("dsp: signal has no spectral content")
	}
	// Parabolic refinement using the log power of the neighbors.
	delta := 0.0
	if best > 1 && best < len(ps)-1 && ps[best-1] > 0 && ps[best+1] > 0 {
		l := math.Log(ps[best-1])
		c := math.Log(ps[best])
		r := math.Log(ps[best+1])
		den := l - 2*c + r
		if den != 0 {
			delta = 0.5 * (l - r) / den
		}
	}
	// FFT length is 2*len(ps); bin k is frequency k/(N*dt) cycles per
	// unit time.
	n := 2 * len(ps)
	freq := (float64(best) + delta) / (float64(n) * dt)
	return 2 * math.Pi * freq, nil // angular frequency
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 12)); err == nil {
		t.Error("accepted length 12")
	}
	if err := FFT(nil); err == nil {
		t.Error("accepted empty input")
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is flat ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A pure complex exponential at bin k concentrates all energy there.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k*i)/n))
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k {
			if math.Abs(mag-n) > 1e-9 {
				t.Errorf("bin %d magnitude %g, want %d", i, mag, n)
			}
		} else if mag > 1e-9 {
			t.Errorf("leakage at bin %d: %g", i, mag)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Energy in time domain equals energy in frequency domain / N.
	rng := rand.New(rand.NewSource(3))
	const n = 128
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/n-timeE) > 1e-9*timeE {
		t.Errorf("Parseval violated: time %g, freq/N %g", timeE, freqE/n)
	}
}

func TestPeakFrequencyRecoversSine(t *testing.T) {
	const omega = 3.7 // angular frequency
	const dt = 0.01
	signal := make([]float64, 2000)
	for i := range signal {
		signal[i] = 2.5 * math.Sin(omega*float64(i)*dt)
	}
	got, err := PeakFrequency(signal, dt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-omega) > 0.02*omega {
		t.Errorf("peak frequency %g, want %g", got, omega)
	}
}

func TestPeakFrequencyWithNoiseAndOffset(t *testing.T) {
	const omega = 12.0
	const dt = 0.005
	rng := rand.New(rand.NewSource(4))
	signal := make([]float64, 3000)
	for i := range signal {
		signal[i] = 5 + math.Sin(omega*float64(i)*dt) + 0.2*rng.NormFloat64()
	}
	got, err := PeakFrequency(signal, dt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-omega) > 0.05*omega {
		t.Errorf("peak frequency %g, want %g (noise/offset case)", got, omega)
	}
}

func TestPeakFrequencyValidation(t *testing.T) {
	if _, err := PeakFrequency([]float64{1, 2}, 0.1); err == nil {
		t.Error("accepted too-short signal")
	}
	if _, err := PeakFrequency(make([]float64, 100), -1); err == nil {
		t.Error("accepted negative dt")
	}
	if _, err := PeakFrequency(make([]float64, 100), 0.1); err == nil {
		t.Error("accepted all-zero signal")
	}
}

func TestPowerSpectrumLength(t *testing.T) {
	ps, err := PowerSpectrum(make([]float64, 100)) // padded to 128
	if err == nil {
		// All-zero signal: spectrum exists but is flat zero; that's fine
		// for PowerSpectrum itself (PeakFrequency rejects it).
		if len(ps) != 64 {
			t.Errorf("spectrum length %d, want 64", len(ps))
		}
	}
}
