module linuxfp/bench

go 1.22

require linuxfp v0.0.0

replace linuxfp => ../
