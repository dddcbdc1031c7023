module kalmanstream/bench

go 1.24

require kalmanstream v0.0.0

replace kalmanstream => ../
