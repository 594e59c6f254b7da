module xmovie/bench

go 1.24

require xmovie v0.0.0

replace xmovie => ../
