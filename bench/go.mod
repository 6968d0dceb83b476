module visapult/bench

go 1.24

require visapult v0.0.0

replace visapult => ../
