module owan/bench

go 1.22

require owan v0.0.0

replace owan => ../
