package rng

import "math"

func sqrt(x float64) float64 { return math.Sqrt(x) }
func log(x float64) float64  { return math.Log(x) }
func ceil(x float64) float64 { return math.Ceil(x) }
