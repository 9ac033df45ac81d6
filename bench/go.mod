module topompc/bench

go 1.23

require topompc v0.0.0

replace topompc => ../
