// @KERNEL: arith -- scalar arithmetic: a linear-congruential fold
// @EXPECT: exit 73
#define N 1800
#define K 7
int main(void) {
    int acc = K;
    for (int i = 0; i < N; i++)
        acc = (acc * 31 + i) % 65521;
    return acc % 256;
}
