package edap

import (
	"math"
	"testing"
)

func TestEDAP(t *testing.T) {
	got, err := EDAP(2, 3, 4)
	if err != nil || got != 24 {
		t.Errorf("EDAP(2,3,4) = %v, %v", got, err)
	}
	if _, err := EDAP(-1, 1, 1); err == nil {
		t.Error("negative energy accepted")
	}
}

func TestNormalize(t *testing.T) {
	got, err := Normalize([]float64{2, 4, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := Normalize([]float64{1}, 0); err == nil {
		t.Error("zero reference accepted")
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4, 16})
	if err != nil || math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean = %v, %v; want 4", got, err)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("zero value accepted")
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3})
	if err != nil || got != 2 {
		t.Errorf("Mean = %v, %v", got, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestImprovement(t *testing.T) {
	got, err := Improvement(100, 63)
	if err != nil || math.Abs(got-0.37) > 1e-12 {
		t.Errorf("Improvement = %v, %v; want 0.37", got, err)
	}
	got, err = Improvement(100, 120)
	if err != nil || math.Abs(got+0.2) > 1e-12 {
		t.Errorf("regression improvement = %v, want -0.2", got)
	}
	if _, err := Improvement(0, 1); err == nil {
		t.Error("zero baseline accepted")
	}
}
