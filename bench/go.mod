module nearestpeer/bench

go 1.24

require nearestpeer v0.0.0

replace nearestpeer => ../
