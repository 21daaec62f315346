// @KERNEL: realloc -- a growing realloc chain
// @EXPECT: exit 233
#include <stdlib.h>
#define N 130
#define K 7
int main(void) {
    int *a = malloc(sizeof(int));
    a[0] = K;
    int sum = 0;
    for (int i = 1; i < N; i++) {
        a = realloc(a, (i + 1) * sizeof(int));
        a[i] = (a[i - 1] * 3 + i) % 1009;
        sum = (sum + a[i]) % 65521;
    }
    free(a);
    return sum % 256;
}
