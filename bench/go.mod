module joinview/bench

go 1.22

require joinview v0.0.0

replace joinview => ../
