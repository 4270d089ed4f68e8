UCLA pl 1.0
a 5 1 : N
b 10 2 : N
