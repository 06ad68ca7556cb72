module mealib/bench

go 1.22

require mealib v0.0.0

replace mealib => ../
